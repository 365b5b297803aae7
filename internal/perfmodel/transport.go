package perfmodel

import (
	"repro/internal/cluster"
	"repro/internal/transport"
)

// TransportReport is the serialized per-link measurement record emitted by
// allegro-md -transport tcp (BENCH_transport.json): the raw link statistics
// the TCP transport accumulated, plus the wall step time of the same
// trajectory over the in-process channel transport and over the wire, so
// the artifact shows what the network actually cost.
type TransportReport struct {
	Transport string                `json:"transport"`
	Ranks     int                   `json:"ranks"`
	Steps     int                   `json:"steps"`
	Atoms     int                   `json:"atoms"`
	ChanNsOp  int64                 `json:"chan_step_ns"`
	WireNsOp  int64                 `json:"wire_step_ns"`
	Links     []transport.LinkStats `json:"links"`
	// Calibrated summary fed into cluster.Machine (worst link wins).
	LinkLatencySec   float64 `json:"link_latency_s"`
	LinkBandwidthBps float64 `json:"link_bandwidth_bps"`
}

// SummarizeLinks reduces measured per-link statistics to the single
// latency/bandwidth pair the analytic machine model consumes. A step
// completes when the slowest link delivers, so the summary is pessimistic:
// the largest measured latency and the smallest measured bandwidth over
// links that observed any traffic. Links without a measurement (no
// heartbeat round trip yet, no bytes moved) are skipped; both results are
// zero when nothing was measured.
func SummarizeLinks(links []transport.LinkStats) (latencySec, bandwidthBps float64) {
	for _, l := range links {
		if l.LatencySec > 0 && l.LatencySec > latencySec {
			latencySec = l.LatencySec
		}
		if l.Bandwidth > 0 && (bandwidthBps == 0 || l.Bandwidth < bandwidthBps) {
			bandwidthBps = l.Bandwidth
		}
	}
	return latencySec, bandwidthBps
}

// CalibrateMachineTransport anchors the machine model's communication terms
// at a live transport's measured links: Machine.LinkLatency/LinkBandwidth
// are set from SummarizeLinks, overriding the frozen
// MsgLatency/GhostBandwidth constants in StepTime (only the terms that were
// actually measured — an all-zero summary changes nothing). The compute
// anchor is untouched.
func CalibrateMachineTransport(mach cluster.Machine, links []transport.LinkStats) cluster.Machine {
	lat, bw := SummarizeLinks(links)
	if lat > 0 {
		mach.LinkLatency = lat
	}
	if bw > 0 {
		mach.LinkBandwidth = bw
	}
	return mach
}
