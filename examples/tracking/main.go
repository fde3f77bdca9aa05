// Fleet tracking — a two-kNN-select answer kept current over a moving fleet
// (the paper's Section 7 names continuous queries as future work).
//
// A dispatch service tracks taxis on the road network and maintains the set
// of taxis that are simultaneously among the 20 nearest to the central
// station AND among the 40 nearest to the market plaza — the cabs that can
// plausibly serve either pickup next. Vehicle movement comes from the
// BerlinMOD-substitute traffic simulation. Every tick, each vehicle's new
// location is written into a mutable relation with Update (vehicle i keeps
// stable ID i), the two-select query runs on the fresh snapshot, and the
// service reports how the answer changed since the previous tick.
//
//	go run ./examples/tracking
package main

import (
	"fmt"
	"log"

	twoknn "repro"
	"repro/internal/berlinmod"
)

func main() {
	sim, err := berlinmod.NewSimulation(berlinmod.Config{
		Network:  berlinmod.NetworkConfig{Seed: 41},
		Vehicles: 400,
		Seed:     42,
	})
	if err != nil {
		log.Fatal(err)
	}
	// Let the fleet disperse before monitoring starts.
	for i := 0; i < 10; i++ {
		sim.Step()
	}
	positions := sim.Positions()

	// Stable IDs are input positions, so vehicle i is point ID i.
	fleet, err := twoknn.NewRelation("taxis", positions, twoknn.WithBounds(sim.Network().Bounds()))
	if err != nil {
		log.Fatal(err)
	}

	station := twoknn.Point{X: 5000, Y: 5000}
	plaza := twoknn.Point{X: 5500, Y: 5200}
	answer := func() []twoknn.Point {
		pts, err := twoknn.TwoSelects(fleet, station, 20, plaza, 40)
		if err != nil {
			log.Fatal(err)
		}
		return pts
	}
	current := answer()
	fmt.Printf("monitoring %d taxis; initial answer: %d cabs near both station and plaza\n",
		fleet.Len(), len(current))

	totalChanges := 0
	for tick := 1; tick <= 30; tick++ {
		sim.Step()
		next := sim.Positions()
		moved := 0
		for i, to := range next {
			if to == positions[i] {
				continue
			}
			if !fleet.Update(int32(i), to) {
				log.Fatalf("vehicle %d is not in the relation", i)
			}
			moved++
		}
		positions = next

		prev := current
		current = answer()
		changes := diffCount(prev, current)
		totalChanges += changes
		fmt.Printf("tick %2d: %3d location updates, %d answer changes\n", tick, moved, changes)
	}

	fmt.Printf("\nafter 30 ticks: %d cabs in the answer, %d changes total\n", len(current), totalChanges)
	for i, p := range current {
		if i == 8 {
			fmt.Printf("  ... (%d more)\n", len(current)-8)
			break
		}
		fmt.Printf("  cab at %v (station %.0f, plaza %.0f)\n", p, p.Dist(station), p.Dist(plaza))
	}
}

// diffCount returns how many answer entries were added or removed between
// two answers, counting co-located cabs by multiplicity.
func diffCount(prev, next []twoknn.Point) int {
	count := make(map[twoknn.Point]int, len(prev))
	for _, p := range prev {
		count[p]++
	}
	for _, p := range next {
		count[p]--
	}
	changes := 0
	for _, c := range count {
		changes += max(c, -c)
	}
	return changes
}
