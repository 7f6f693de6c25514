// Command bench is the repository's benchmark: four workloads against
// internal/server on an in-process loopback listener, eight end-to-end
// metrics a client of the endpoint sees, and a traced run that attributes
// the time to each layer. See README.md in this directory.
//
//	bench --workload replay-warm --seed 1 --seconds 10 --trace 0
//	bench                          # all four, each in its own child process, untraced then traced
//	bench -compare base.jsonl change.jsonl
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// options are the command's flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	smoke    bool
	out      string
	outDir   string
	compare  bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run in this process (default: all four, one child process each)")
	flag.Int64Var(&o.seed, "seed", 1, "drives the op order")
	flag.Float64Var(&o.seconds, "seconds", 10, "measure whole passes until this much timed wall has passed")
	trace := flag.Int("trace", 0, "0: untraced passes, end-to-end metrics; 1: adds the traced pass, per-layer metrics")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny sizes that exercise every code path in seconds")
	flag.StringVar(&o.out, "out", "", "append the run's full report to this file, one JSON object per line")
	flag.StringVar(&o.outDir, "out-dir", filepath.Join("bench", "out"), "directory for trace files")
	flag.BoolVar(&o.compare, "compare", false, "compare two sets of -out reports: bench -compare base.jsonl change.jsonl")
	flag.Parse()
	o.traced = *trace == 1
	if err := run(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options, args []string) error {
	if o.compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare wants two report files, base then change")
		}
		base, err := readReports(args[0])
		if err != nil {
			return err
		}
		change, err := readReports(args[1])
		if err != nil {
			return err
		}
		if n := compareSets(os.Stdout, base, change); n > 0 {
			return fmt.Errorf("%d (workload, metric) pairs regressed beyond their bound", n)
		}
		return nil
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	if o.workload == "" {
		return runAll(o)
	}
	w := workloadByName(o.workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	sz := fullSizes()
	if o.smoke {
		sz = smokeSizes()
	}
	rep, err := runWorkload(w, sz, o.seed, o.seconds, o.traced, o.outDir)
	if err != nil {
		return err
	}
	printReport(os.Stdout, rep)
	if o.out != "" {
		if err := appendReport(o.out, rep); err != nil {
			return err
		}
	}
	// The contract's result line: the last line of standard output.
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, rep.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return fmt.Errorf("%s: %d of %d ops failed", rep.Workload, rep.Failed, rep.Attempted)
	}
	return nil
}

func appendReport(path string, rep *report) error {
	doc, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(doc, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printReport lists every metric of the run by name with its value, unit,
// direction, sample count and bound, then the diagnostics behind them.
func printReport(w io.Writer, rep *report) {
	e := rep.Env
	fmt.Fprintf(w, "# workload %s  seed %d  traced %t  passes %d  wall %.1fs\n", rep.Workload, rep.Seed, rep.Traced, rep.Passes, rep.WallS)
	fmt.Fprintf(w, "# env commit=%s go=%s GOMAXPROCS=%d nproc=%d cpu=%q kernel=%s\n", e.Commit, e.GoVersion, e.GOMAXPROCS, e.NumCPU, e.CPUModel, e.Kernel)
	defs := endToEnd
	if rep.Traced {
		defs = perLayer
	}
	for _, d := range defs {
		m := rep.Metrics[d.name]
		arrow := "lower is better"
		if d.better == "higher" {
			arrow = "higher is better"
		}
		bound := ""
		if d.bound > 0 {
			bound = fmt.Sprintf("  bound %.0f%%", 100*d.bound)
		}
		fmt.Fprintf(w, "%-36s %14.4f %-6s %-16s n=%d%s\n", d.name, m.Value, m.Unit, arrow, rep.Samples[d.name], bound)
	}
	var classes []string
	for c := range rep.ClassMedians {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		fmt.Fprintf(w, "# class %-12s median %10.3f ms  n=%d\n", c, rep.ClassMedians[c], rep.ClassCounts[c])
	}
	fmt.Fprintf(w, "# pass throughput (1/s): %.2f  spread %.1f%%\n", rep.PassQPS, 100*spread(rep.PassQPS))
	fmt.Fprintf(w, "# calibration probes (ms): %.1f  disturbed: %t\n", rep.CalibSpinMS, rep.Disturbed)
	fmt.Fprintf(w, "# ops_attempted %d  ops_failed %d\n", rep.Attempted, rep.Failed)
	for _, f := range rep.Failures {
		fmt.Fprintf(w, "# FAIL %s\n", f)
	}
	if rep.TraceFile != "" {
		fmt.Fprintf(w, "# trace written to %s\n", rep.TraceFile)
	}
}

// runAll runs the four workloads one after another, each untraced and then
// traced, every run in its own child process of this command so one
// workload's heap and peak RSS cannot leak into the next one's numbers.
func runAll(o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	failed := 0
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			args := []string{"--workload", w.name, "--seed", fmt.Sprint(o.seed), "--seconds", fmt.Sprint(o.seconds),
				"--trace", trace, "--out-dir", o.outDir}
			if o.smoke {
				args = append(args, "--smoke")
			}
			if o.out != "" {
				args = append(args, "--out", o.out)
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.StdoutPipe()
			if err != nil {
				return err
			}
			if err := cmd.Start(); err != nil {
				return err
			}
			sc := bufio.NewScanner(stdout)
			sc.Buffer(make([]byte, 1<<20), 16<<20)
			for sc.Scan() { // the child's table; its contract line is for the driver
				if !strings.HasPrefix(sc.Text(), "{") {
					fmt.Println(sc.Text())
				}
			}
			if err := cmd.Wait(); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s trace=%s: %v\n", w.name, trace, err)
				failed++
			}
			fmt.Println()
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d runs failed", failed)
	}
	return nil
}
