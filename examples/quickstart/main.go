// Quickstart: train CrowdRTSE on a synthetic city and answer one realtime
// speed query end-to-end (OCS road selection → crowd probing → GSP
// propagation).
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/network"
	"repro/internal/speedgen"
	"repro/internal/tslot"
)

func main() {
	// 1. A synthetic road network standing in for the paper's Hong Kong
	//    feed: 200 roads, costs drawn uniformly from [1,5].
	net := network.Synthetic(network.SyntheticOptions{Roads: 200, Seed: 7, CostMax: 5})
	fmt.Printf("network: %d roads, %d adjacencies\n", net.N(), net.M())

	// 2. Simulate 14 days of historical records; hold the last day out as
	//    the "realtime" ground truth.
	hist, err := speedgen.Generate(net, speedgen.Default(14, 8))
	if err != nil {
		log.Fatal(err)
	}
	trainDays := hist.Days - 1
	evalDay := hist.Days - 1

	// 3. Offline stage: fit the RTF graphical model.
	sys, err := core.Train(net, hist.DayRange(0, trainDays), core.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained RTF on %d days (%d records)\n", trainDays, trainDays*net.N()*tslot.PerDay)

	// 4. Online stage: at 08:30, ask for the speed of ten roads with a
	//    budget of 25 answers. Workers are everywhere (the semi-synthesized
	//    setting); their answers come from the held-out day plus phone
	//    measurement noise.
	slot := tslot.OfMinute(8*60 + 30)
	query := []int{3, 17, 42, 55, 81, 102, 133, 150, 177, 198}
	res, err := sys.Query(context.Background(), core.QueryRequest{
		Slot:    slot,
		Roads:   query,
		Budget:  25,
		Theta:   0.92,
		Workers: crowd.PlaceEverywhere(net),
		Probe:   crowd.ProbeConfig{NoiseSD: 0.02, Seed: 9},
		Truth:   func(r int) float64 { return hist.At(evalDay, slot, r) },
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\ncrowdsourced roads (OCS, Hybrid-Greedy): %v\n", res.Selected.Roads)
	fmt.Printf("budget spent: %d/%d answers\n\n", res.Ledger.Spent, 25)
	fmt.Printf("%-6s %10s %10s %10s\n", "road", "periodic", "estimate", "truth")
	for _, r := range query {
		fmt.Printf("%-6d %10.1f %10.1f %10.1f\n",
			r, sys.Model().Mu(slot, r), res.QuerySpeeds[r], hist.At(evalDay, slot, r))
	}
}
