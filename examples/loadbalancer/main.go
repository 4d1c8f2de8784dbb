// Loadbalancer: planning a coordinated upgrade across a three-process
// service with *decomposable* concerns, demonstrating the scalability
// techniques of the paper's Sec. 7 — collaborative-set decomposition and
// partial-SAG (A*) planning.
//
// The system runs a balancer with two policy components and two worker
// pools with versioned handlers. The balancing policy and each pool's
// handler version are constrained by separate invariants, so the planner
// can split the components into independent collaborative sets and plan
// each separately — the per-set planning explores 2^|set| configurations
// instead of 2^n.
//
// Run with: go run ./examples/loadbalancer
package main

import (
	"fmt"
	"log"
	"strings"
	"time"
)

import safeadapt "repro"

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	sys, err := safeadapt.FromJSON([]byte(`{
		"name": "loadbalancer-upgrade",
		"components": [
			{"name": "RoundRobin",  "process": "balancer"},
			{"name": "LeastLoaded", "process": "balancer"},
			{"name": "PoolA_v1",    "process": "poolA"},
			{"name": "PoolA_v2",    "process": "poolA"},
			{"name": "PoolA_canary","process": "poolA"},
			{"name": "PoolB_v1",    "process": "poolB"},
			{"name": "PoolB_v2",    "process": "poolB"}
		],
		"invariants": [
			{"name": "one-policy",  "kind": "structural", "predicate": "oneof(RoundRobin, LeastLoaded)"},
			{"name": "poolA-version", "kind": "structural", "predicate": "oneof(PoolA_v1, PoolA_v2, PoolA_canary)"},
			{"name": "poolB-version", "kind": "structural", "predicate": "oneof(PoolB_v1, PoolB_v2)"}
		],
		"actions": [
			{"id": "Policy",   "operation": "RoundRobin -> LeastLoaded", "costMillis": 15},
			{"id": "A-canary", "operation": "PoolA_v1 -> PoolA_canary",  "costMillis": 5},
			{"id": "A-promote","operation": "PoolA_canary -> PoolA_v2",  "costMillis": 5},
			{"id": "A-direct", "operation": "PoolA_v1 -> PoolA_v2",      "costMillis": 40},
			{"id": "B-upgrade","operation": "PoolB_v1 -> PoolB_v2",      "costMillis": 20}
		],
		"source": ["RoundRobin", "PoolA_v1", "PoolB_v1"],
		"target": ["LeastLoaded", "PoolA_v2", "PoolB_v2"]
	}`))
	if err != nil {
		return err
	}

	fmt.Println("collaborative sets (independent concerns):")
	for i, set := range sys.CollaborativeSets() {
		fmt.Printf("  set %d: %s\n", i+1, strings.Join(set, ", "))
	}

	// Whole-system planning (eager SAG) and partial-SAG planning agree...
	eagerStart := time.Now()
	flat, err := sys.Plan(sys.Source(), sys.Target())
	if err != nil {
		return err
	}
	eager := time.Since(eagerStart)

	astarStart := time.Now()
	astar, err := sys.PlanAStar(sys.Source(), sys.Target())
	if err != nil {
		return err
	}
	astarTook := time.Since(astarStart)

	fmt.Printf("\nflat MAP (eager SAG, %v):   %s\n", eager.Round(time.Microsecond), flat)
	fmt.Printf("flat MAP (A* search, %v):   %s\n", astarTook.Round(time.Microsecond), astar)

	// ...and decomposed planning yields the same total cost while only
	// ever looking at one collaborative set at a time. Note the planner
	// routes pool A through the cheap canary->promote chain (5+5) rather
	// than the expensive direct upgrade (40).
	dec, err := sys.PlanDecomposed(sys.Source(), sys.Target())
	if err != nil {
		return err
	}
	fmt.Printf("\ndecomposed plan (total cost %v):\n", dec.Cost())
	for _, sp := range dec.Sets {
		if len(sp.Path.Steps) == 0 {
			fmt.Printf("  %v: no change\n", sp.Components)
			continue
		}
		fmt.Printf("  %v: %s\n", sp.Components, sp.Path)
	}

	if flat.Cost() != dec.Cost() {
		return fmt.Errorf("decomposed cost %v disagrees with flat cost %v", dec.Cost(), flat.Cost())
	}
	fmt.Println("\ndecomposed and whole-system planning agree on the minimum cost")
	return nil
}
