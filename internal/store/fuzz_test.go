package store

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// FuzzStoreRecords writes a store file by hand: a valid header, then the
// records spelled out one a line as "<kind> <mission> <body>", each
// framed with a valid CRC, then a raw tail. Open must recover whatever
// that is without failing, a second Open must truncate nothing and list
// the same missions, and FleetStats and ReadMission must agree with the
// query oracle: both fail, or both give the same JSON. Run with
// `go test -fuzz=FuzzStoreRecords ./internal/store` for a real campaign;
// the committed corpus runs in normal `go test`.
func FuzzStoreRecords(f *testing.F) {
	f.Fuzz(func(t *testing.T, records string, tail []byte) {
		data := encodeHeader()
		for _, line := range strings.Split(records, "\n") {
			k, rest, _ := strings.Cut(line, " ")
			m, body, _ := strings.Cut(rest, " ")
			kind, err := strconv.ParseUint(k, 10, 8)
			if err != nil {
				continue
			}
			mission, err := strconv.ParseUint(m, 10, 64)
			if err != nil {
				continue
			}
			data = appendFrame(data, appendPayload(nil, Kind(kind), mission, []byte(body)))
		}
		data = append(data, tail...)
		path := filepath.Join(t.TempDir(), "fuzz.lgvstore")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}

		s, err := Open(path)
		if err != nil {
			t.Fatalf("Open on a valid header: %v", err)
		}
		listed := render(s.List(Filter{}))
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		s, err = Open(path)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer s.Close()
		if st := s.Stats(); st.TruncatedBytes != 0 {
			t.Fatalf("reopen truncated %d bytes of a recovered store", st.TruncatedBytes)
		}
		if again := render(s.List(Filter{})); again != listed {
			t.Fatalf("List changed across reopen:\nfirst:  %s\nreopen: %s", listed, again)
		}
		checkOracle(t, s, "fuzz", false)
	})
}
