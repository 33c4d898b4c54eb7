// Command nfvhypo runs the hypothesis-driven invariant experiments
// (internal/hypo) against the live dataplane engine and emits canonical
// JSON result sets plus markdown ledger bodies for
// hypotheses/<name>/FINDINGS.md.
//
//	nfvhypo -list
//	nfvhypo -hypothesis h-conservation -rounds 3 -seeds 42,123,456
//	nfvhypo -hypothesis all -rounds 2 -scale 0.5 -out results/
//	nfvhypo -hypothesis h-liveness -dry-run
//
// Canonical JSON (without -observed) is byte-reproducible for a fixed
// (hypothesis, seeds, rounds, scale) on one host as long as the verdict
// reproduces: it contains only the config matrix, seeds, fault plans, the
// host stamp (GOMAXPROCS, CPU count and model, Go version) and pass/fail
// bits — no timestamps or measured counters. Exit status is 0 only when
// every requested hypothesis is Confirmed.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"nfvnice/internal/hypo"
)

func main() {
	var (
		name     = flag.String("hypothesis", "", "hypothesis to run (name from -list, or 'all')")
		list     = flag.Bool("list", false, "list registered hypotheses and exit")
		rounds   = flag.Int("rounds", 3, "rounds per (config, seed) point")
		seedsStr = flag.String("seeds", "42,123,456", "comma-separated fault/jitter seeds")
		scale    = flag.Float64("scale", 1.0, "workload scale factor (1.0 = ledger scale)")
		out      = flag.String("out", "", "output path: file for one hypothesis, directory for 'all' (default stdout)")
		mdOut    = flag.String("md", "", "also write the markdown ledger body to this path (single hypothesis only)")
		observed = flag.Bool("observed", false, "include measured counters in the JSON (breaks byte-reproducibility)")
		dryRun   = flag.Bool("dry-run", false, "print the expanded config matrix and planned run count, then exit")
		quiet    = flag.Bool("q", false, "suppress per-run progress on stderr")
	)
	flag.Parse()

	if *list {
		for _, n := range hypo.Names() {
			e, _ := hypo.Get(n)
			fmt.Printf("%-16s %s\n", n, e.Title)
		}
		return
	}
	if *name == "" {
		fmt.Fprintln(os.Stderr, "nfvhypo: -hypothesis required (or -list); see -h")
		os.Exit(2)
	}

	seeds, err := parseSeeds(*seedsStr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nfvhypo: %v\n", err)
		os.Exit(2)
	}

	var names []string
	if *name == "all" {
		names = hypo.Names()
	} else {
		if _, ok := hypo.Get(*name); !ok {
			fmt.Fprintf(os.Stderr, "nfvhypo: unknown hypothesis %q (have: %s)\n",
				*name, strings.Join(hypo.Names(), ", "))
			os.Exit(2)
		}
		names = []string{*name}
	}

	logf := func(format string, args ...any) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	opt := hypo.Options{Rounds: *rounds, Seeds: seeds, Scale: *scale, Logf: logf}

	if *dryRun {
		for _, n := range names {
			e, _ := hypo.Get(n)
			configs := hypo.ExpandMatrix(e.Axes)
			fmt.Printf("%s: %d configs x %d seeds x %d rounds = %d runs\n",
				n, len(configs), len(seeds), *rounds, len(configs)*len(seeds)**rounds)
			for _, c := range configs {
				fmt.Printf("  %v\n", c)
			}
		}
		return
	}

	allConfirmed := true
	for _, n := range names {
		e, _ := hypo.Get(n)
		res, err := hypo.Run(e, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nfvhypo: %s: %v\n", n, err)
			os.Exit(1)
		}
		if res.Verdict != hypo.Confirmed {
			allConfirmed = false
		}
		blob, err := hypo.CanonicalJSON(res, *observed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nfvhypo: %s: %v\n", n, err)
			os.Exit(1)
		}
		blob = append(blob, '\n')
		switch {
		case *out == "":
			os.Stdout.Write(blob)
		case len(names) > 1:
			if err := os.MkdirAll(*out, 0o755); err != nil {
				fmt.Fprintf(os.Stderr, "nfvhypo: %v\n", err)
				os.Exit(1)
			}
			path := filepath.Join(*out, n+".json")
			if err := os.WriteFile(path, blob, 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "nfvhypo: %v\n", err)
				os.Exit(1)
			}
			logf("%s: wrote %s", n, path)
		default:
			if err := os.WriteFile(*out, blob, 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "nfvhypo: %v\n", err)
				os.Exit(1)
			}
		}
		if *mdOut != "" && len(names) == 1 {
			if err := os.WriteFile(*mdOut, []byte(hypo.Markdown(res)), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "nfvhypo: %v\n", err)
				os.Exit(1)
			}
		}
		fmt.Fprintf(os.Stderr, "nfvhypo: %s verdict=%s (%d runs)\n", n, res.Verdict, len(res.Runs))
	}
	if !allConfirmed {
		os.Exit(1)
	}
}

func parseSeeds(s string) ([]uint64, error) {
	var out []uint64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseUint(part, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q: %v", part, err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no seeds given")
	}
	return out, nil
}
