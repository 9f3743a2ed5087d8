// Command bench is the repo benchmark: four workloads, end-to-end metrics
// kept apart by clock (model_* are virtual-clock results, host_* are
// wall-clock/CPU/heap costs of the Go code), and a per-layer host budget
// measured from outside the program. See README.md.
//
// Every measurement runs in a child process of its own (lab's camera
// cache, the sync.Pools and the par pool are process-global, and peak
// RSS is per process); the parent only schedules children and reduces
// their one-line results.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"ffsva/internal/par"
)

func main() {
	var (
		workload = flag.String("workload", "", "run only this workload (offline_lowtor, offline_hightor, online_knee, fleet_churn)")
		seed     = flag.Int64("seed", 1, "which stream plays which clip: ids, ladder membership, visiting order and placement follow it")
		seconds  = flag.Float64("seconds", 15, "timed seconds per workload, split evenly over the rounds")
		traceSel = flag.Int("trace", -1, "0: untraced rounds only (end-to-end metrics); 1: the traced run only (per-layer metrics); default both")
		rounds   = flag.Int("rounds", 3, "untraced children per workload, interleaved across workloads")
		width    = flag.Int("width", 0, "GOMAXPROCS and par pool width of the measuring children (default min(nproc, 4))")
		out      = flag.String("out", "", "write the full result document (JSON) here")
		traceOut = flag.String("trace-out", "", "write the traced run's spans here as Chrome trace-event JSON (one workload: use with -workload)")
		compare  = flag.Bool("compare", false, "compare two result documents: -compare a.json b.json")
		cpuProf  = flag.String("cpuprofile", "", "CPU profile of the selected workload's first untraced child")
		memProf  = flag.String("memprofile", "", "heap profile of the selected workload's first untraced child")

		child    = flag.Bool("child", false, "internal: run one measurement and print its result line")
		budget   = flag.Duration("budget", 0, "internal: a child's timed budget")
		calibRef = flag.Float64("calib-ref", 0, "internal: the session's fastest calibration, ms")
	)
	flag.Parse()
	sz := defaultSizes()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatalf("usage: -compare a.json b.json")
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	case *child:
		os.Exit(childMain(childOpts{
			Workload: *workload, Seed: *seed, Budget: *budget, Traced: *traceSel == 1,
			CalibRef: *calibRef, Sizes: sz, TraceOut: *traceOut,
		}, *cpuProf, *memProf))
	}

	if *workload != "" {
		if _, ok := workloadByName(*workload); !ok {
			fatalf("unknown workload %q", *workload)
		}
	}
	if (*cpuProf != "" || *memProf != "" || *traceOut != "") && *workload == "" {
		fatalf("-cpuprofile, -memprofile and -trace-out need -workload")
	}
	if *rounds < 1 || *seconds <= 0 {
		fatalf("-rounds and -seconds must be positive")
	}
	ses := &session{
		Workload: *workload, Seed: *seed, Seconds: *seconds, Rounds: *rounds, Trace: *traceSel,
		TraceOut: *traceOut, CPUProfile: *cpuProf, MemProfile: *memProf,
		Width: *width, WideWidth: min(runtime.NumCPU(), 4), Sizes: sz,
	}
	if ses.Width <= 0 {
		ses.Width = ses.WideWidth
	}
	doc, err := ses.run()
	if err != nil {
		fatalf("%v", err)
	}
	doc.print(os.Stdout)
	if *out != "" {
		if err := doc.write(*out); err != nil {
			fatalf("%v", err)
		}
	}
	correct := doc.correct()
	// With one workload and one kind of run selected, the last line is the
	// machine-readable result the benchmark contract asks for.
	if *workload != "" && *traceSel >= 0 {
		fmt.Println(doc.contractLine(*workload, *traceSel == 1))
	}
	if !correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// childMain is the measurement process. Its width comes from the
// GOMAXPROCS variable the parent set in its environment; the par pool is
// sized to match.
func childMain(opt childOpts, cpuProf, memProf string) int {
	opt.Width = runtime.GOMAXPROCS(0)
	par.SetWorkers(opt.Width)
	if cpuProf != "" {
		f, err := os.Create(cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench child:", err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "bench child:", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	res, err := runChild(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		return 2
	}
	if memProf != "" {
		f, err := os.Create(memProf)
		if err == nil {
			err = pprof.WriteHeapProfile(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench child:", err)
			return 2
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		return 2
	}
	fmt.Println(string(line))
	return 0
}

// childTimeout bounds one child; the contract gives a whole invocation
// 180 s, so a child that exceeds this has hung.
const childTimeout = 150 * time.Second
