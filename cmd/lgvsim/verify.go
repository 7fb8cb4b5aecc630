package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"lgvoffload"
)

// Artifact kinds `lgvsim -verify` recognizes.
const (
	kindFlight = "flight bundle"
	kindChrome = "chrome trace"
	kindProm   = "prometheus text"
)

// runVerify validates every artifact file in paths, printing one ok line
// per valid file to stdout and one error line per invalid or unreadable
// file to stderr. It returns the process exit code: 0 when every file is
// valid, 1 otherwise.
func runVerify(paths []string, stdout, stderr io.Writer) int {
	code := 0
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(stderr, "verify:", err)
			code = 1
			continue
		}
		summary, err := verifyArtifact(data)
		if err != nil {
			fmt.Fprintf(stderr, "verify: %s: %v\n", path, err)
			code = 1
			continue
		}
		fmt.Fprintf(stdout, "%s: ok: %s\n", path, summary)
	}
	return code
}

// verifyArtifact validates data with the checker for the kind its
// content declares and returns a one-line summary led by that kind.
func verifyArtifact(data []byte) (string, error) {
	kind := artifactKind(data)
	var (
		summary string
		err     error
	)
	switch kind {
	case kindFlight:
		var info lgvoffload.FlightBundle
		info, err = lgvoffload.VerifyFlightBundle(data)
		summary = fmt.Sprintf("reason=%s t=%.3f frames=%d events=%d",
			info.Reason, info.T, info.Frames, info.Events)
	case kindChrome:
		var n int
		n, err = lgvoffload.ValidateChromeTrace(data)
		summary = fmt.Sprintf("%d complete events", n)
	case kindProm:
		var n int
		n, err = lgvoffload.ValidatePrometheusText(data)
		summary = fmt.Sprintf("%d samples", n)
	default:
		if len(bytes.TrimSpace(data)) == 0 {
			return "", errors.New("empty file")
		}
		return "", errors.New("not a flight bundle, Chrome trace or Prometheus text")
	}
	if err != nil {
		return "", fmt.Errorf("%s: %w", kind, err)
	}
	return kind + ", " + summary, nil
}

// artifactKind tells the artifact kind from content alone: a flight
// bundle's first line is a JSON object with "version", a Chrome trace is
// a JSON object with "traceEvents", and Prometheus text opens with a
// "# HELP" or "# TYPE" comment. It returns "" for anything else.
func artifactKind(data []byte) string {
	// Decode reads only the first JSON value: a bundle's header line, or
	// the whole trace document.
	var obj map[string]json.RawMessage
	if json.NewDecoder(bytes.NewReader(data)).Decode(&obj) == nil {
		switch {
		case obj["version"] != nil:
			return kindFlight
		case obj["traceEvents"] != nil:
			return kindChrome
		}
		return ""
	}
	first, _, _ := bytes.Cut(bytes.TrimSpace(data), []byte("\n"))
	if bytes.HasPrefix(first, []byte("# HELP ")) || bytes.HasPrefix(first, []byte("# TYPE ")) {
		return kindProm
	}
	return ""
}
