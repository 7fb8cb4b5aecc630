package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"

	_ "embed"

	"lgvoffload/internal/core"
	"lgvoffload/internal/simtest"
)

// Every workload draws its missions, by the workload seed, from a fixed
// pool whose reference digests are committed in reference.json. The
// references were recorded bare (no observability attached) with each
// mission's modeled thread count (up to 8). Runs put the kernels on one
// thread and attach the workload's sinks and the daemon's scheduler, so
// every match also re-proves that none of them changes a result.
const (
	// A run makes several passes over the whole pool, so every run
	// measures the same missions, in its seed's order.
	missionPool = 4  // nav-observed and explore mission seeds 1..4
	servePool   = 16 // serve-batch scenario seeds 1..16 (simtest.Generate)
)

//go:embed reference.json
var referenceJSON []byte

// reference maps workload → pool seed → digest. The table of workload
// "explore" holds thread-invariant digests; the table "explore/serial"
// holds full digests of the same missions run on one kernel thread.
var reference map[string]map[string]string

func loadReference() error {
	if err := json.Unmarshal(referenceJSON, &reference); err != nil {
		return fmt.Errorf("reference.json: %w", err)
	}
	return nil
}

// digest is the first 16 hex digits of the SHA-256 of a result's
// canonical encoding with the SLAM row of its cycle table narrowed to
// the row's parallel work (scan matching and map integration). The
// row's serial work is not deterministic once SLAM runs on more than
// one thread: two workers can both copy a copy-on-write tile the
// particles share, so the tile copies SLAM bills (UpdateStats.CopyOps)
// vary from run to run and with the thread count. Everything else,
// trajectory, energy and the matched and integrated beams included,
// repeats exactly.
func digest(res *core.Result) string {
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(simtest.Canonical(res), &doc); err != nil {
		panic("perfbench: canonical result is not a JSON object: " + err.Error())
	}
	var rows, kept []json.RawMessage
	if err := json.Unmarshal(doc["cycles"], &rows); err != nil {
		panic("perfbench: canonical cycle table: " + err.Error())
	}
	for _, r := range rows {
		var row struct {
			Node string `json:"n"`
		}
		if err := json.Unmarshal(r, &row); err != nil {
			panic("perfbench: canonical cycle row: " + err.Error())
		}
		if row.Node != core.NodeSLAM {
			kept = append(kept, r)
		}
	}
	if res.Cycles != nil {
		for _, r := range res.Cycles.Breakdown() {
			if r.Node == core.NodeSLAM {
				kept = append(kept, json.RawMessage(fmt.Sprintf(`{"n":%q,"parallel":%s}`,
					r.Node, strconv.FormatFloat(r.Work.ParallelCycles, 'g', -1, 64))))
			}
		}
	}
	doc["cycles"], _ = json.Marshal(kept) // a slice of raw JSON always marshals
	canon, _ := json.Marshal(doc)         // so does a map of raw JSON
	sum := sha256.Sum256(canon)
	return hex.EncodeToString(sum[:8])
}

// fullDigest is the first 16 hex digits of the SHA-256 of a result's
// whole canonical encoding, SLAM's billed tile copies included. It
// repeats exactly when SLAM runs on one thread.
func fullDigest(res *core.Result) string {
	sum := sha256.Sum256(simtest.Canonical(res))
	return hex.EncodeToString(sum[:8])
}

// digestProblems compares res, a mission run on one kernel thread, with
// the references of the workload's pool entry seed: the thread-invariant
// digest, and the full digest where the workload has one, so that a
// change to the SLAM work the cycle table bills does not go unnoticed.
func digestProblems(workload string, seed int64, res *core.Result) []string {
	key := strconv.FormatInt(seed, 10)
	var problems []string
	if want, ok := reference[workload][key]; !ok || want != digest(res) {
		problems = append(problems, "digest "+digest(res)+" does not match the reference")
	}
	if want, ok := reference[workload+"/serial"][key]; ok && want != fullDigest(res) {
		problems = append(problems, "one-thread digest "+fullDigest(res)+" does not match the reference")
	}
	return problems
}

// recordReference runs every pool mission bare, two at a time, and writes
// the digest tables: thread-invariant digests at each mission's modeled
// thread count, and full digests on one kernel thread for the workloads
// whose missions run SLAM.
func recordReference(path string) error {
	type job struct {
		table string
		seed  int64
		cfg   core.MissionConfig
	}
	var jobs []job
	for s := int64(1); s <= missionPool; s++ {
		serial := exploreConfig(s)
		serial.KernelThreads = 1
		jobs = append(jobs, job{"nav-observed", s, navConfig(s)}, job{"explore", s, exploreConfig(s)},
			job{"explore/serial", s, serial})
	}
	for s := int64(1); s <= servePool; s++ {
		for _, table := range []string{"serve-batch", "serve-batch/serial"} {
			kernelCap := 0
			if table == "serve-batch/serial" {
				kernelCap = 1
			}
			spec, err := serveSpec(s, kernelCap)
			if err != nil {
				return err
			}
			cfg, _, err := simtest.BuildScenarioMission(spec)
			if err != nil {
				return err
			}
			jobs = append(jobs, job{table, s, cfg})
		}
	}

	ref := map[string]map[string]string{}
	for _, j := range jobs {
		if ref[j.table] == nil {
			ref[j.table] = map[string]string{}
		}
	}
	var (
		mu    sync.Mutex
		first error
		wg    sync.WaitGroup
		next  = make(chan job)
	)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				res, err := core.Run(j.cfg)
				mu.Lock()
				if err != nil && first == nil {
					first = fmt.Errorf("%s seed %d: %w", j.table, j.seed, err)
				}
				if err == nil {
					d := digest(res)
					if strings.HasSuffix(j.table, "/serial") {
						d = fullDigest(res)
					}
					ref[j.table][strconv.FormatInt(j.seed, 10)] = d
				}
				mu.Unlock()
			}
		}()
	}
	for _, j := range jobs {
		next <- j
	}
	close(next)
	wg.Wait()
	if first != nil {
		return first
	}
	out, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
