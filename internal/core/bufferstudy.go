package core

import (
	"context"
	"fmt"
	"io"

	"wormlan/internal/sim"
	"wormlan/internal/sweep"
	"wormlan/internal/topology"
)

// BufferStudyRow is one load point of the buffer-contention study — the
// investigation the paper leaves as work in progress in Section 9
// ("evaluating (via simulation) the actual contention for buffers (and the
// probability of deadlocks) in various load and traffic pattern
// conditions").
type BufferStudyRow struct {
	Load float64

	// PeakClass1/PeakClass2 are the highest buffer occupancies observed
	// in any adapter's two classes, in bytes.
	PeakClass1, PeakClass2 int
	// NackRate is NACKs per multicast data-worm hop: the probability that
	// the optimistic reservation of Figure 5 fails and the worm must be
	// retried.
	NackRate float64
	// Deliveries and GiveUps summarize the outcome (give-ups stay zero
	// while the protocol is healthy).
	Deliveries, GiveUps int64
}

// BufferStudyGrid sweeps offered load under the full reliable protocol
// (ACK/NACK reservation, two buffer classes, LANai-sized pools) and
// reports buffer contention.  The paper's conjecture — that when NACK
// probability is low a cheaper, less reliable multicast might be
// preferable — becomes measurable here.  Every load point reuses the base
// seed (same groups, same arrival streams) so the load axis is the only
// thing that varies across rows.
func BufferStudyGrid(seed uint64, loads []float64) sweep.Grid[BufferStudyRow] {
	g := sweep.Grid[BufferStudyRow]{Name: "buffer-occupancy", BaseSeed: seed}
	for _, load := range loads {
		load := load
		g.Add(ablationPoint{Ablation: "buffer-occupancy", Load: load, Seed: seed},
			func(context.Context, uint64) (BufferStudyRow, error) {
				return bufferStudyPoint(seed, load)
			})
	}
	return g
}

// bufferStudyPoint measures one load point of the study.
func bufferStudyPoint(seed uint64, load float64) (BufferStudyRow, error) {
	row := BufferStudyRow{Load: load}
	g := topology.Torus(4, 4, 1, 1)
	st, err := sim.Build(sim.Config{
		Graph:         g,
		Scheme:        sim.HamiltonianSF,
		OfferedLoad:   load,
		MulticastProb: 0.15,
		NumGroups:     4,
		GroupSize:     6,
		Measure:       200_000,
		Drain:         600_000,
		Seed:          seed,
	})
	if err == nil {
		err = st.Wire()
	}
	if err != nil {
		return row, err
	}
	err = st.K.Run(800_000)
	if err = checked(fmt.Sprintf("buffer-occupancy load %v", load), st.Collect(), err); err != nil {
		return row, err
	}
	for _, h := range g.Hosts() {
		c1, c2, _ := st.Sys.Adapter(h).Pools()
		row.PeakClass1 = max(row.PeakClass1, c1.Peak)
		row.PeakClass2 = max(row.PeakClass2, c2.Peak)
	}
	as := st.Sys.Stats()
	row.Deliveries = as.Deliveries
	row.GiveUps = as.GiveUps
	// Hops attempted ~= deliveries minus origins' local copies plus
	// retransmissions; NACKs per attempted hop is the paper's failure
	// probability.
	hops := as.Deliveries - as.MulticastsSent + as.Retransmits
	if hops > 0 {
		row.NackRate = float64(as.Nacks) / float64(hops)
	}
	return row, nil
}

// PrintBufferStudy renders the study.
func PrintBufferStudy(w io.Writer, rows []BufferStudyRow) {
	fmt.Fprintln(w, "Buffer-contention study (Section 9 'work in progress'): reliable")
	fmt.Fprintln(w, "protocol, LANai-sized pools (12.8 KB per class), 4 groups x 6")
	fmt.Fprintln(w, "load    peakClass1  peakClass2  nackRate  deliveries  giveups")
	for _, r := range rows {
		fmt.Fprintf(w, "%5.3f   %9d   %9d   %7.4f  %10d  %7d\n",
			r.Load, r.PeakClass1, r.PeakClass2, r.NackRate, r.Deliveries, r.GiveUps)
	}
}
