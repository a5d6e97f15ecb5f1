package simnet

import "testing"

// BenchmarkSimnetOneWay is the network model's layer budget: one keyed
// one-way delay, the draw a simulated service makes for every leg of
// every request, cycling over the agent-to-data-center links.
func BenchmarkSimnetOneWay(b *testing.B) {
	n := DefaultTopology(1)
	from := AgentSites()
	to := []Site{DCWest, DCAsia, DCEurope}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.OneWayU(from[i%3], to[(i/3)%3], 0.5); err != nil {
			b.Fatal(err)
		}
	}
}
