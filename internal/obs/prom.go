package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text-format exporter: renders the registry for scrapers of
// the inspector's /metrics.prom (lgvsim -http and -serve). Counters get
// the conventional _total suffix; the fixed-bucket histograms are
// rendered as summaries (quantile label + _sum/_count) because their
// p50/p95/p99 estimates are what every consumer of this repo's metrics
// already reads — re-deriving le-bucketed histograms would duplicate
// state the Registry does not keep per-snapshot.

// promLabelKey maps a metric name to the name of its single label
// dimension in the exposition (our Registry keys metrics by one untyped
// label string). Unlisted labeled metrics use "label".
var promLabelKey = map[string]string{
	MNodeExecSeconds:      "node",
	MNodeExecs:            "node",
	MHostBusySeconds:      "host",
	MTransfers:            "topic",
	MTransferBytes:        "topic",
	MDrops:                "topic",
	MOverwrites:           "queue",
	MReconnects:           "peer",
	MFrames:               "transport",
	MDecodeErrors:         "transport",
	MFaultsInjected:       "kind",
	MCritComputeSeconds:   "host",
	MCritQueueSeconds:     "dir",
	MCritTransportSeconds: "dir",
	MSLOBreaches:          "rule",
	MFlightDumps:          "reason",
}

// WritePrometheus renders every metric in Prometheus/OpenMetrics text
// exposition format. namespace, when non-empty, prefixes every metric
// name ("lgv" -> "lgv_tick_pipeline_seconds"). Families are emitted in
// sorted (name, kind) order with # HELP/# TYPE headers, so the output is
// deterministic and parseable by any Prometheus scraper.
func (r *Registry) WritePrometheus(w io.Writer, namespace string) error {
	snap := r.Snapshot()

	// Group points into families: all samples of one (name, kind) stay
	// contiguous, as the exposition format requires.
	type famKey struct{ name, kind string }
	fams := make(map[famKey][]MetricPoint)
	var keys []famKey
	for _, p := range snap {
		k := famKey{p.Name, p.Kind}
		if _, ok := fams[k]; !ok {
			keys = append(keys, k)
		}
		fams[k] = append(fams[k], p)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].name != keys[j].name {
			return keys[i].name < keys[j].name
		}
		return keys[i].kind < keys[j].kind
	})

	bw := bufio.NewWriter(w)
	for _, k := range keys {
		base := promName(namespace, k.name)
		labelKey := promLabelKey[k.name]
		if labelKey == "" {
			labelKey = "label"
		}
		switch k.kind {
		case "counter":
			name := base + "_total"
			fmt.Fprintf(bw, "# HELP %s %s\n", name, promHelp(k.name))
			fmt.Fprintf(bw, "# TYPE %s counter\n", name)
			for _, p := range fams[k] {
				fmt.Fprintf(bw, "%s%s %s\n", name, promLabels(labelKey, p.Label), promFloat(p.Value))
			}
		case "gauge":
			fmt.Fprintf(bw, "# HELP %s %s\n", base, promHelp(k.name))
			fmt.Fprintf(bw, "# TYPE %s gauge\n", base)
			for _, p := range fams[k] {
				fmt.Fprintf(bw, "%s%s %s\n", base, promLabels(labelKey, p.Label), promFloat(p.Value))
			}
		default: // histogram -> summary
			fmt.Fprintf(bw, "# HELP %s %s\n", base, promHelp(k.name))
			fmt.Fprintf(bw, "# TYPE %s summary\n", base)
			for _, p := range fams[k] {
				for _, q := range [...]struct {
					q string
					v float64
				}{{"0.5", p.P50}, {"0.95", p.P95}, {"0.99", p.P99}} {
					fmt.Fprintf(bw, "%s%s %s\n", base,
						promLabelsQ(labelKey, p.Label, q.q), promFloat(q.v))
				}
				fmt.Fprintf(bw, "%s_sum%s %s\n", base, promLabels(labelKey, p.Label), promFloat(p.Sum))
				fmt.Fprintf(bw, "%s_count%s %d\n", base, promLabels(labelKey, p.Label), p.Count)
			}
		}
	}
	return bw.Flush()
}

func promHelp(name string) string {
	return "lgvoffload metric " + name + " (see internal/obs)"
}

// promName sanitizes a metric name into [a-zA-Z_:][a-zA-Z0-9_:]*.
func promName(namespace, name string) string {
	var b strings.Builder
	if namespace != "" {
		b.WriteString(promSanitize(namespace))
		b.WriteByte('_')
	}
	b.WriteString(promSanitize(name))
	return b.String()
}

func promSanitize(s string) string {
	var b strings.Builder
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteRune(c)
		case c >= '0' && c <= '9' && i > 0:
			b.WriteRune(c)
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "_"
	}
	return b.String()
}

func promLabels(key, value string) string {
	if value == "" {
		return ""
	}
	return "{" + key + "=\"" + promEscape(value) + "\"}"
}

func promLabelsQ(key, value, quantile string) string {
	if value == "" {
		return "{quantile=\"" + quantile + "\"}"
	}
	return "{" + key + "=\"" + promEscape(value) + "\",quantile=\"" + quantile + "\"}"
}

// promEscape escapes a label value per the exposition format.
func promEscape(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return s
}

func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ValidatePrometheusText checks that data parses as Prometheus text
// exposition format and returns the number of samples. It verifies
// metric-name syntax, label syntax (quoted, escaped values), numeric
// sample values, and that every sample belongs to a family declared by
// a preceding # TYPE line. Shared by the exporter's unit test and
// `lgvsim -verify`, so the CI smoke test and the tests agree on what
// "valid" means.
func ValidatePrometheusText(data []byte) (int, error) {
	types := map[string]string{} // family name -> type
	samples := 0
	lineNo := 0
	for _, line := range strings.Split(string(data), "\n") {
		lineNo++
		line = strings.TrimRight(line, "\r")
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 {
				continue // free-form comment
			}
			switch fields[1] {
			case "TYPE":
				name, typ := fields[2], ""
				if len(fields) >= 4 {
					typ = fields[3]
				}
				if !validPromName(name) {
					return samples, fmt.Errorf("line %d: invalid metric name %q in TYPE", lineNo, name)
				}
				switch typ {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return samples, fmt.Errorf("line %d: unknown metric type %q", lineNo, typ)
				}
				if _, dup := types[name]; dup {
					return samples, fmt.Errorf("line %d: duplicate TYPE for %q", lineNo, name)
				}
				types[name] = typ
			case "HELP":
				if !validPromName(fields[2]) {
					return samples, fmt.Errorf("line %d: invalid metric name %q in HELP", lineNo, fields[2])
				}
			}
			continue
		}
		name, rest, err := parsePromSample(line)
		if err != nil {
			return samples, fmt.Errorf("line %d: %v", lineNo, err)
		}
		if _, ok := types[promFamily(name, types)]; !ok {
			return samples, fmt.Errorf("line %d: sample %q has no preceding # TYPE", lineNo, name)
		}
		_ = rest
		samples++
	}
	if samples == 0 {
		return 0, fmt.Errorf("no samples")
	}
	return samples, nil
}

// promFamily resolves a sample name to its declared family: exact match,
// or the base name of a summary/histogram child (_sum, _count, _bucket).
func promFamily(name string, types map[string]string) string {
	if _, ok := types[name]; ok {
		return name
	}
	for _, suf := range []string{"_sum", "_count", "_bucket"} {
		if base, ok := strings.CutSuffix(name, suf); ok {
			if _, ok := types[base]; ok {
				return base
			}
		}
	}
	return name
}

func validPromName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// parsePromSample parses `name{k="v",...} value [timestamp]`.
func parsePromSample(line string) (name, rest string, err error) {
	i := 0
	for i < len(line) && line[i] != '{' && line[i] != ' ' {
		i++
	}
	name = line[:i]
	if !validPromName(name) {
		return "", "", fmt.Errorf("invalid metric name %q", name)
	}
	rest = line[i:]
	if strings.HasPrefix(rest, "{") {
		end, err := parsePromLabelSet(rest)
		if err != nil {
			return "", "", err
		}
		rest = rest[end:]
	}
	rest = strings.TrimLeft(rest, " ")
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return "", "", fmt.Errorf("want `value [timestamp]` after %q, got %q", name, rest)
	}
	if _, err := strconv.ParseFloat(fields[0], 64); err != nil {
		return "", "", fmt.Errorf("sample value %q: %v", fields[0], err)
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return "", "", fmt.Errorf("timestamp %q: %v", fields[1], err)
		}
	}
	return name, rest, nil
}

// parsePromLabelSet validates a `{k="v",...}` block and returns the
// index just past the closing brace.
func parsePromLabelSet(s string) (int, error) {
	i := 1 // past '{'
	for {
		if i >= len(s) {
			return 0, fmt.Errorf("unterminated label set")
		}
		if s[i] == '}' {
			return i + 1, nil
		}
		// label name
		j := i
		for j < len(s) && s[j] != '=' {
			j++
		}
		if j >= len(s) || !validPromName(s[i:j]) {
			return 0, fmt.Errorf("invalid label name %q", s[i:j])
		}
		i = j + 1
		if i >= len(s) || s[i] != '"' {
			return 0, fmt.Errorf("label value must be quoted")
		}
		i++
		for i < len(s) && s[i] != '"' {
			if s[i] == '\\' {
				i++
			}
			i++
		}
		if i >= len(s) {
			return 0, fmt.Errorf("unterminated label value")
		}
		i++ // past closing quote
		if i < len(s) && s[i] == ',' {
			i++
		}
	}
}
