package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// runAA is the benchmark judging itself: n untraced runs per workload, each
// with another seed, made twice (sets A and B of the same commit). For
// every workload × end-to-end metric it prints both medians, the quartile
// spread of each set as a share of its median, and the bound. The verdict
// is FAIL where the benchmark would be refused — a spread above the bound
// (setup_s is exempt from that test, as the contract has it) or B's median
// worse than A's by more than the bound — and "noisy" where a spread is
// above half the bound, which is the margin this repository asks of its
// own instrument. Either makes the exit code 1. The values of every run go
// to standard error. It returns the process exit code.
func runAA(sp *spec, n int, seconds float64, out io.Writer) int {
	if n < 2 {
		fmt.Fprintln(os.Stderr, "bench: -aa needs at least 2 runs per set")
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	failed := false
	fmt.Fprintln(out, "| workload | metric | unit | median A | median B | B vs A | spread A | spread B | bound | verdict |")
	fmt.Fprintln(out, "|---|---|---|---|---|---|---|---|---|---|")
	for _, w := range sp.Workloads {
		sets := [2]map[string][]float64{{}, {}}
		for set := range sets {
			for i := 0; i < n; i++ {
				res, failures, err := childRun(self, w.Name, uint64(i+1), seconds)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", w.Name, i+1, err)
					return 2
				}
				if !res.Correct {
					fmt.Fprintf(os.Stderr, "bench: %s seed %d: %d of %d operations failed\n%s", w.Name, i+1, res.Failed, res.Attempted, failures)
					failed = true
				}
				for name, v := range res.Metrics {
					sets[set][name] = append(sets[set][name], v.Value)
				}
			}
		}
		for _, m := range sp.EndToEnd {
			a, b := sets[0][m.Name], sets[1][m.Name]
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			sa, sb := spread(a), spread(b)
			verdict := "ok"
			switch s := max(sa, sb); {
			case worse > m.Bound || (s > m.Bound && m.Name != "setup_s"):
				verdict, failed = "FAIL", true
			case s > m.Bound/2:
				verdict, failed = "noisy", true
			}
			fmt.Fprintf(out, "| %s | %s | %s | %.5g | %.5g | %+.1f%% | %.1f%% | %.1f%% | %.0f%% | %s |\n",
				w.Name, m.Name, m.Unit, ma, mb, 100*(mb-ma)/ma, 100*sa, 100*sb, 100*m.Bound, verdict)
			fmt.Fprintf(os.Stderr, "%s %s A %.5g\n%s %s B %.5g\n", w.Name, m.Name, a, w.Name, m.Name, b)
		}
	}
	if failed {
		return 1
	}
	return 0
}

// childRun runs one untraced run of this binary and decodes the JSON line
// it ends with; failures holds the FAILED lines of its table.
func childRun(self, workload string, seed uint64, seconds float64) (res result, failures string, err error) {
	cmd := exec.Command(self,
		"--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return res, "", err
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	for _, l := range lines {
		if bytes.Contains(l, []byte("FAILED:")) {
			failures += string(l) + "\n"
		}
	}
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return res, failures, fmt.Errorf("last line is not a result: %w", err)
	}
	return res, failures, nil
}
