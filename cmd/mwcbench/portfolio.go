package main

// The portfolio profile: one case per registered algorithm on a
// message-bound instance (gen.PortfolioProfile), emitted in the bench/
// baseline JSON schema. The committed bench/portfolio_baseline.json is
// this command's output; the root BenchmarkPortfolio go-test benchmark
// runs the same profile, so its rounds/op and messages/op figures are
// bit-identical to the baseline and scripts/benchgate.go gates them
// exactly, while ns_per_op is gated with a wall-clock tolerance.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"congestmwc"
	"congestmwc/internal/gen"
)

// portfolioGraph builds the named algorithm's instance of the portfolio
// profile and returns it with the profile's workload text.
func portfolioGraph(algo string) (*congestmwc.Graph, string, error) {
	r, workload := gen.PortfolioProfile(algo)
	inner, err := r.Graph()
	if err != nil {
		return nil, "", err
	}
	edges := make([]congestmwc.Edge, 0, inner.M())
	for _, e := range inner.Edges() {
		edges = append(edges, congestmwc.Edge{From: e.From, To: e.To, Weight: e.Weight})
	}
	class := congestmwc.Undirected
	if r.Weighted {
		class = congestmwc.UndirectedWeighted
	}
	g, err := congestmwc.NewGraph(r.N, edges, class)
	return g, workload, err
}

// writePortfolioJSON runs every registered portfolio algorithm on the
// message-bound profile and emits the bench/ baseline schema.
func writePortfolioJSON(w *os.File, args []string, reps int) error {
	rep := benchReport{
		Benchmark: "BenchmarkPortfolio",
		Recorded:  time.Now().UTC().Format("2006-01-02"),
		Purpose: "Algorithm portfolio on the message-bound profile (dense random, n=96, p=0.15): one case per registered algorithm. " +
			"rounds_per_op and messages_per_op are deterministic (fixed seeds) and gated exactly by scripts/benchgate.go; " +
			"ns_per_op is gated with a wall-clock tolerance. Regenerate with `mwcbench -portfolio -json`.",
		Environment: benchEnvironment{
			Goos:      runtime.GOOS,
			Goarch:    runtime.GOARCH,
			CPU:       cpuModel(),
			Benchtime: fmt.Sprintf("%dx", reps),
			Command:   "mwcbench " + strings.Join(args, " "),
		},
	}
	for _, a := range congestmwc.Portfolio() {
		g, workload, err := portfolioGraph(a.Name)
		if err != nil {
			return fmt.Errorf("portfolio %s: %w", a.Name, err)
		}
		var rounds, msgs float64
		start := time.Now()
		for r := 0; r < reps; r++ {
			res, err := congestmwc.RunAlgorithm(a.Name, g, congestmwc.Options{Seed: 1})
			if err != nil {
				return fmt.Errorf("portfolio %s: %w", a.Name, err)
			}
			if !res.Found {
				return fmt.Errorf("portfolio %s: no cycle found on the dense profile", a.Name)
			}
			rounds += float64(res.Rounds)
			msgs += float64(res.Messages)
		}
		elapsed := time.Since(start)
		rep.Cases = append(rep.Cases, benchCase{
			Name:          a.Name,
			Workload:      workload,
			RoundsPerOp:   rounds / float64(reps),
			MessagesPerOp: msgs / float64(reps),
			NsPerOp:       float64(elapsed.Nanoseconds()) / float64(reps),
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
