// Fleet example: the multi-robot deployment question. k delivery robots
// share one remote server; as the fleet grows, each robot's share of the
// server shrinks. The 4-core edge gateway wins small fleets (the paper's
// Fig. 10: frequency beats cores on the velocity-dependent path), but
// the 24-core cloud amortizes across larger ones — this example locates
// the crossover for a warehouse fleet.
//
//	go run ./examples/fleet
package main

import (
	"fmt"
	"log"

	"lgvoffload"
	"lgvoffload/internal/core"
	"lgvoffload/internal/fleet"
)

func main() {
	base := func(d lgvoffload.Deployment) core.MissionConfig {
		return core.MissionConfig{
			Workload:   lgvoffload.NavigationWithMap,
			Map:        lgvoffload.EmptyRoomMap(6, 4, 0.05),
			Start:      lgvoffload.Pose(0.8, 2, 0),
			Goal:       lgvoffload.Point(5.2, 2),
			WAP:        lgvoffload.Point(3, 2),
			Deployment: d,
			Seed:       3,
			MaxSimTime: 600,
		}
	}
	sizes := []int{1, 2, 4, 8, 16, 32}

	edge, err := fleet.Sweep(base(lgvoffload.DeployEdge(8)), sizes, core.Run)
	if err != nil {
		log.Fatal(err)
	}
	cloud, err := fleet.Sweep(base(lgvoffload.DeployCloud(12)), sizes, core.Run)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("per-robot delivery time as the fleet shares one server")
	fmt.Printf("%8s %14s %14s %10s\n", "robots", "edge (s)", "cloud (s)", "winner")
	for i := range sizes {
		winner := "edge"
		if cloud[i].Time < edge[i].Time {
			winner = "cloud"
		}
		fmt.Printf("%8d %14.1f %14.1f %10s\n", sizes[i], edge[i].Time, cloud[i].Time, winner)
	}
	if k, ok := fleet.Crossover(edge, cloud); ok {
		fmt.Printf("\n→ rent the gateway below %d robots, the cloud from %d up.\n", k, k)
	}
}
