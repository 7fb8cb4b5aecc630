package obs

import (
	"bytes"
	"strings"
	"testing"
)

func promTestRegistry() *Registry {
	r := NewRegistry()
	r.Add(MSwitches, "", 473)
	r.Add(MDrops, "scan", 3)
	r.Add(MDrops, "cmd_vel", 1)
	r.Set(MBandwidth, "", 72.5)
	r.Set(MLinkSignal, "", 0.8)
	for i := 0; i < 100; i++ {
		r.Observe(MTickSeconds, "", 0.02+float64(i)*0.0005)
		r.Observe(MNodeExecSeconds, "costmap_gen", 0.01)
	}
	r.Add(MSLOBreaches, SLOVdpP99, 1)
	r.Add(MFlightDumps, "watchdog", 2)
	return r
}

// TestWritePrometheusValidates is the acceptance check: the exporter's
// own output must satisfy the shared validator that `lgvsim -verify`
// applies to scraped /metrics.prom bodies.
func TestWritePrometheusValidates(t *testing.T) {
	var buf bytes.Buffer
	if err := promTestRegistry().WritePrometheus(&buf, "lgv"); err != nil {
		t.Fatal(err)
	}
	n, err := ValidatePrometheusText(buf.Bytes())
	if err != nil {
		t.Fatalf("exporter output fails validation: %v\n%s", err, buf.String())
	}
	if n == 0 {
		t.Fatal("no samples exported")
	}

	out := buf.String()
	for _, want := range []string{
		"# TYPE lgv_placement_switches_total counter",
		"lgv_placement_switches_total 473",
		`lgv_net_drops_total{topic="cmd_vel"} 1`,
		`lgv_net_drops_total{topic="scan"} 3`,
		"# TYPE lgv_alg2_bandwidth gauge",
		"lgv_alg2_bandwidth 72.5",
		"# TYPE lgv_tick_pipeline_seconds summary",
		`lgv_tick_pipeline_seconds{quantile="0.99"}`,
		"lgv_tick_pipeline_seconds_count 100",
		`lgv_node_exec_seconds{node="costmap_gen",quantile="0.5"}`,
		`lgv_slo_breaches_total{rule="vdp_p99"} 1`,
		`lgv_flight_dumps_total{reason="watchdog"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestWritePrometheusDeterministic(t *testing.T) {
	render := func() []byte {
		var buf bytes.Buffer
		if err := promTestRegistry().WritePrometheus(&buf, "lgv"); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a := render()
	for i := 0; i < 10; i++ {
		if b := render(); !bytes.Equal(a, b) {
			t.Fatal("same registry state rendered different bytes across runs")
		}
	}
}

func TestWritePrometheusEscaping(t *testing.T) {
	r := NewRegistry()
	r.Add("odd-metric.name", `va"lue\with`+"\n"+`newline`, 1)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidatePrometheusText(buf.Bytes()); err != nil {
		t.Fatalf("escaped output fails validation: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "odd_metric_name_total") {
		t.Errorf("metric name not sanitized:\n%s", buf.String())
	}
}

func TestValidatePrometheusTextRejects(t *testing.T) {
	cases := []struct {
		name string
		data string
	}{
		{"empty", ""},
		{"sample without TYPE", "foo_total 1\n"},
		{"bad metric name", "# TYPE 9bad counter\n9bad 1\n"},
		{"unknown type", "# TYPE foo flavor\nfoo 1\n"},
		{"duplicate TYPE", "# TYPE foo counter\n# TYPE foo counter\nfoo 1\n"},
		{"bad value", "# TYPE foo counter\nfoo banana\n"},
		{"unterminated labels", "# TYPE foo counter\nfoo{a=\"b\" 1\n"},
		{"unquoted label", "# TYPE foo counter\nfoo{a=b} 1\n"},
		{"comments only", "# HELP foo help text\n# TYPE foo counter\n"},
	}
	for _, tc := range cases {
		if _, err := ValidatePrometheusText([]byte(tc.data)); err == nil {
			t.Errorf("%s: accepted, want rejection", tc.name)
		}
	}

	good := "# TYPE foo counter\nfoo{a=\"b\"} 1 1700000000\nfoo 2\n" +
		"# TYPE bar summary\nbar{quantile=\"0.5\"} 3\nbar_sum 4\nbar_count 5\n"
	n, err := ValidatePrometheusText([]byte(good))
	if err != nil {
		t.Fatalf("valid text rejected: %v", err)
	}
	if n != 5 {
		t.Errorf("counted %d samples, want 5", n)
	}
}
