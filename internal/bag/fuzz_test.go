package bag

import (
	"bytes"
	"math"
	"testing"

	"lgvoffload/internal/wire"
)

// FuzzBagReader feeds the reader arbitrary bytes: .lgvbag files, read by
// `lgvbag -info` and `-replay`, are the only outside input the wire
// codec decodes. The reader must never panic, and every record Next
// returns must write back through Writer and read back with the same
// stamp bits, topic and frame bytes. The committed seeds are v1 and v2
// bags of Twist, Pose and Scan records, a v2 bag cut mid-record, a bad
// magic and a record length of 2^24+1.
func FuzzBagReader(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		for {
			rec, err := r.Next()
			if err != nil {
				return
			}
			var buf bytes.Buffer
			w, err := NewWriter(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Write(rec.Stamp, rec.Topic, rec.Msg); err != nil {
				t.Fatal(err)
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			back, err := ReadAll(&buf)
			if err != nil || len(back) != 1 {
				t.Fatalf("rewritten %T record reads back as %d records, err %v", rec.Msg, len(back), err)
			}
			got := back[0]
			if math.Float64bits(got.Stamp) != math.Float64bits(rec.Stamp) || got.Topic != rec.Topic {
				t.Fatalf("record (%v, %q) reads back as (%v, %q)", rec.Stamp, rec.Topic, got.Stamp, got.Topic)
			}
			if a, b := wire.EncodeFrame(rec.Msg), wire.EncodeFrame(got.Msg); !bytes.Equal(a, b) {
				t.Fatalf("%T frame %x reads back as %x", rec.Msg, a, b)
			}
		}
	})
}
