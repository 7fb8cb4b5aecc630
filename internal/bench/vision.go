package bench

import (
	"fmt"
	"io"
	"math/rand"

	"lgvoffload/internal/geom"
	"lgvoffload/internal/vo"
)

// visionSeconds is the length of each §IX cruise.
const visionSeconds = 120.0

// visionRow is one commanded speed's §IX cruise.
type visionRow struct {
	speed    float64
	losses   int
	realized float64 // distance traveled over the cruise time, m/s
	errDist  float64 // final position error, m
	lostTime float64 // seconds spent relocalizing
}

// vision runs the §IX cruise once per commanded speed.
func vision(quick bool) []visionRow {
	speeds := []float64{0.1, 0.2, 0.3, 0.4, 0.6, 0.8}
	if quick {
		speeds = []float64{0.2, 0.6}
	}
	const dt, creep = 0.1, 0.05
	var rows []visionRow
	for _, speed := range speeds {
		v := vo.New(vo.DefaultConfig(), rand.New(rand.NewSource(9)))
		truth := geom.P(0, 0, 0)
		lostTime := 0.0
		for tt := 0.0; tt < visionSeconds; tt += dt {
			omega := 0.0
			if int(tt/5)%4 == 3 {
				omega = 0.5
			}
			// Respond to tracking loss: creep until relocalized.
			cmd := speed
			if !v.Tracking() {
				cmd = creep
				lostTime += dt
			}
			next := geom.Twist{V: cmd, W: omega}.Integrate(truth, dt)
			delta := truth.Delta(next)
			truth = next
			v.Update(delta, cmd, omega, dt)
		}
		rows = append(rows, visionRow{
			speed:    speed,
			losses:   v.Losses(),
			realized: v.Traveled() / visionSeconds,
			errDist:  v.Estimate().Pos.Dist(geom.P(0, 0, 0).Delta(truth).Pos),
			lostTime: lostTime,
		})
	}
	return rows
}

// RunVision runs the §IX vision-based-LGV extension. The robot cruises a
// loop with turns; when feature tracking is lost it does what a real
// vision stack does — slows to creep speed until relocalized, then
// resumes. Sweeping the commanded cruise speed shows the paper's claim
// quantitatively: above the blur limit, losses multiply and the
// *realized* speed saturates, so commanding a vision-based LGV faster
// buys nothing — the velocity cap must respect the sensing constraint,
// not just Eq. 2c.
func RunVision(w io.Writer, quick bool) error {
	cfg := vo.DefaultConfig()
	hr(w, "Vision-based LGV extension — tracking losses vs commanded speed (§IX)")
	fmt.Fprintf(w, "blur limit: %.2f m/s equivalent flow (turns count %.1fx)\n\n",
		cfg.BlurLimit, cfg.TurnWeight)
	fmt.Fprintf(w, "%12s %10s %14s %12s %12s\n",
		"cmd speed", "losses", "realized m/s", "err(m)", "lost time %")
	for _, r := range vision(quick) {
		fmt.Fprintf(w, "%12.2f %10d %14.3f %12.3f %11.0f%%\n",
			r.speed, r.losses, r.realized, r.errDist, 100*r.lostTime/visionSeconds)
	}
	fmt.Fprintf(w, "\nsafe cruise speed while turning at 0.5 rad/s: %.2f m/s\n",
		vo.New(cfg, rand.New(rand.NewSource(1))).SafeSpeed(0.5))
	fmt.Fprintln(w, "Paper's reading (§IX): vision-based LGVs share the pipeline but must cap")
	fmt.Fprintln(w, "velocity below the feature-tracking blur limit — commanding faster only")
	fmt.Fprintln(w, "multiplies relocalization stops; the realized speed saturates.")
	return nil
}
