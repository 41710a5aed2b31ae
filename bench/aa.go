package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// childResult is a run's result line plus, from an untraced run, the
// informational numbers printed on the line before it.
type childResult struct {
	resultLine
	Info map[string]float64
}

// runChild runs one workload in a fresh process (so peak RSS, the tuner
// memo and the plan cache start clean), copies its report to echo, and
// returns the parsed result.
func runChild(workload string, seed uint64, seconds float64, trace int, echo io.Writer) (*childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	if echo != nil {
		_, _ = echo.Write(out.Bytes())
	}
	var last, info []byte
	sc := bufio.NewScanner(&out)
	sc.Buffer(nil, 1<<22)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if bytes.HasPrefix(line, []byte(`{"info":`)) {
			info = append(info[:0], line...)
		} else if len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	var res childResult
	if err := json.Unmarshal(last, &res.resultLine); err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("no result line: %w", err)
	}
	if info != nil {
		var doc struct{ Info map[string]float64 }
		if err := json.Unmarshal(info, &doc); err != nil {
			return nil, fmt.Errorf("info line: %w", err)
		}
		res.Info = doc.Info
	}
	return &res, nil
}

// runAA is the A/A check: for each workload, two interleaved sets of k
// runs of the same code (set A on seeds seed, seed+1, …; set B on the
// seeds after them), then per (workload, metric) both medians, their
// quartiles, the spread the acceptance pipeline computes — per set and
// over all 2k runs — the relative difference of the medians, and PASS
// or FAIL against the metric's bound.
func runAA(name string, k int, seed uint64, seconds float64) error {
	defs := workloads
	if name != "all" {
		def := findWorkload(name)
		if def == nil {
			return fmt.Errorf("unknown workload %q", name)
		}
		defs = []workloadDef{*def}
	}
	failed := false
	for _, def := range defs {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < k; i++ {
			for s := range sets {
				runSeed := seed + uint64(s*k+i)
				res, err := runChild(def.name, runSeed, seconds, 0, nil)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", def.name, runSeed, err)
				}
				if !res.Correct {
					return fmt.Errorf("%s seed %d: wrong results", def.name, runSeed)
				}
				for m, v := range res.Metrics {
					sets[s][m] = append(sets[s][m], v.Value)
				}
				for m, v := range res.Info {
					sets[s][m] = append(sets[s][m], v)
				}
			}
		}
		for _, m := range endToEnd {
			a, b := sets[0][m.name], sets[1][m.name]
			a1, a2, a3 := pyQuartiles(a)
			b1, b2, b3 := pyQuartiles(b)
			worse := (b2 - a2) / a2
			if m.better == higher {
				worse = -worse
			}
			verdict := "PASS"
			// setup_s is held to the median shift only, as in the
			// acceptance pipeline.
			if worse > m.bound || (m.name != "setup_s" && max(spread(a), spread(b)) > m.bound) {
				verdict = "FAIL"
				failed = true
			}
			all := append(a[:len(a):len(a)], b...)
			fmt.Printf("%-15s %-13s A %.5g [%.5g %.5g] spread %.2f%%  B %.5g [%.5g %.5g] spread %.2f%%  all %d runs: spread %.2f%%  B vs A %+.2f%%  bound %.0f%%  %s\n",
				def.name, m.name, a2, a1, a3, 100*spread(a), b2, b1, b3, 100*spread(b),
				len(all), 100*spread(all), 100*worse, 100*m.bound, verdict)
		}
		// Not gated: the raw time and the ratio to each calibration kernel.
		for _, name := range []string{"raw.op_ms_p50", "raw.op_rel_l2", "raw.op_rel_mem"} {
			a, b := sets[0][name], sets[1][name]
			all := append(a[:len(a):len(a)], b...)
			fmt.Printf("%-15s %-13s A %.5g spread %.2f%%  B %.5g spread %.2f%%  all %d runs: spread %.2f%%  B vs A %+.2f%%  (not gated)\n",
				def.name, name, median(a), 100*spread(a), median(b), 100*spread(b),
				len(all), 100*spread(all), 100*(median(b)-median(a))/median(a))
		}
	}
	if failed {
		return fmt.Errorf("A/A check failed")
	}
	return nil
}
