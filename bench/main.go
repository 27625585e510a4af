// Command bench is this repository's benchmark: the instrument every
// performance claim is measured with. It runs one workload per invocation,
//
//	bash bench/run.sh --workload primal-online --seed 1 --seconds 55 --trace 0
//
// prints every metric by name and unit, checks the program's outputs, and
// ends with one JSON line in the format BENCHMARK.json's contract
// prescribes. It times the program only from outside, through public
// functions; bench/README.md documents workloads, metrics and protocol.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// spec is the part of BENCHMARK.json the harness reads: which metrics a
// run must report, with which units, and the bounds the A/A mode judges
// against.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sp, nil
}

func (sp *spec) unit(name string) string {
	for _, list := range [][]metricSpec{sp.EndToEnd, sp.PerLayer} {
		for _, m := range list {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	return ""
}

func (sp *spec) endToEnd(name string) bool {
	for _, m := range sp.EndToEnd {
		if m.Name == name {
			return true
		}
	}
	return false
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run ends with.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// resultOf selects the metrics the kind of run must report: every
// end-to-end metric for an untraced run, every per-layer metric for a
// traced one. A layer the workload does not cross reports zero work; a
// missing end-to-end metric is a harness bug.
func resultOf(sp *spec, rep *report, trace bool) (result, error) {
	res := result{Attempted: rep.checks.attempted, Failed: rep.checks.failed, Metrics: map[string]value{}}
	res.Correct = res.Failed == 0
	list := sp.EndToEnd
	if trace {
		list = sp.PerLayer
	}
	for _, m := range list {
		v, ok := rep.metrics[m.Name]
		if !ok && !trace {
			return res, fmt.Errorf("metric %s was not measured", m.Name)
		}
		res.Metrics[m.Name] = value{Value: v, Unit: m.Unit}
	}
	return res, nil
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (see BENCHMARK.json)")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 0, "length of the measured window (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports the per-layer metrics")
	trainSet := flag.Int("train-set", 1, "training input set: 1 is what every gated run uses, 2 is held out for confirming a claim")
	aa := flag.Int("aa", 0, "run N untraced runs per workload twice and compare the two sets")
	flag.Parse()
	// The harness runs from the checkout root (run.sh sees to it).
	cfg.scale, cfg.outDir, cfg.trainSet = 1, "bench/out", *trainSet-1

	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	if cfg.seconds == 0 {
		cfg.seconds = float64(sp.RunSeconds)
	}
	if *aa > 0 {
		os.Exit(runAA(sp, *aa, cfg.seconds, os.Stdout))
	}
	cfg.trace = trace != 0
	rep, err := run(cfg, os.Stdout)
	if err != nil {
		fatal(err)
	}
	printTable(os.Stdout, sp, rep, cfg.trace)
	res, err := resultOf(sp, rep, cfg.trace)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
