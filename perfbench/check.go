package main

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/network"
)

// Response bodies, restricted to the fields the checks read.

type estimateResp struct {
	Estimates map[string]float64 `json:"estimates"`
	Intervals map[string]struct {
		Lo float64 `json:"lo"`
		Hi float64 `json:"hi"`
	} `json:"intervals"`
	Provenance map[string]string `json:"provenance"`
}

type selectResp struct {
	Roads []int `json:"roads"`
	Cost  int   `json:"cost"`
}

type routeResp struct {
	Roads      []int   `json:"roads"`
	ETAMinutes float64 `json:"eta_minutes"`
	Segments   []struct {
		Road    int     `json:"road"`
		Minutes float64 `json:"minutes"`
	} `json:"segments"`
}

type reportResp struct {
	Answers int `json:"answers"`
}

var provenances = map[string]bool{"observed": true, "fused": true, "prior": true}

// checkEstimate: every requested road (all roads when roads is nil) is
// present and finite, lo ≤ est ≤ hi, and its provenance is a known one.
func checkEstimate(res *estimateResp, roads []int, n int) error {
	want := len(roads)
	if roads == nil {
		want = n
	}
	if len(res.Estimates) != want {
		return fmt.Errorf("estimate: %d roads answered, %d asked", len(res.Estimates), want)
	}
	for i := 0; i < want; i++ {
		road := i
		if roads != nil {
			road = roads[i]
		}
		key := strconv.Itoa(road)
		est, ok := res.Estimates[key]
		if !ok || math.IsNaN(est) || math.IsInf(est, 0) {
			return fmt.Errorf("estimate: road %d missing or not finite (%v)", road, est)
		}
		iv, ok := res.Intervals[key]
		if !ok || !(iv.Lo <= est && est <= iv.Hi) {
			return fmt.Errorf("estimate: road %d interval [%v, %v] does not hold %v", road, iv.Lo, iv.Hi, est)
		}
		if p := res.Provenance[key]; !provenances[p] {
			return fmt.Errorf("estimate: road %d provenance %q", road, p)
		}
	}
	return nil
}

// checkSelect: the selection costs what its roads cost, within budget.
func checkSelect(res *selectResp, budget int, net *network.Network) error {
	if res.Cost > budget {
		return fmt.Errorf("select: cost %d over budget %d", res.Cost, budget)
	}
	sum := 0
	for _, r := range res.Roads {
		if r < 0 || r >= net.N() {
			return fmt.Errorf("select: road %d out of range", r)
		}
		sum += net.Road(r).Cost
	}
	if sum != res.Cost {
		return fmt.Errorf("select: roads cost %d, reported %d", sum, res.Cost)
	}
	return nil
}

// checkRoute: the path runs from src to dst over adjacent roads, one segment
// per road after the first, and the ETA is the sum of segment minutes.
func checkRoute(res *routeResp, src, dst int, net *network.Network) error {
	if len(res.Roads) < 2 || res.Roads[0] != src || res.Roads[len(res.Roads)-1] != dst {
		return fmt.Errorf("route: path %v does not run %d→%d", res.Roads, src, dst)
	}
	if len(res.Segments) != len(res.Roads)-1 {
		return fmt.Errorf("route: %d segments for %d roads", len(res.Segments), len(res.Roads))
	}
	var sum float64
	for i, seg := range res.Segments {
		if seg.Road != res.Roads[i+1] || !net.Adjacent(res.Roads[i], seg.Road) {
			return fmt.Errorf("route: segment %d (road %d) does not follow road %d", i, seg.Road, res.Roads[i])
		}
		sum += seg.Minutes
	}
	if math.Abs(sum-res.ETAMinutes) > 1e-9*math.Max(1, sum) {
		return fmt.Errorf("route: ETA %v ≠ Σ segment minutes %v", res.ETAMinutes, sum)
	}
	return nil
}

func checkReport(res *reportResp) error {
	if res.Answers < 1 {
		return fmt.Errorf("report: %d answers after a report", res.Answers)
	}
	return nil
}
