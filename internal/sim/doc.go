// Package sim is a deterministic discrete-event simulator for preemptive
// hardware multitasking on partially reconfigurable FPGAs — the workload
// the paper's cost models exist to serve.
//
// The engine advances a virtual clock through events in (time, scheduling
// sequence) order — the next arrival, or the one pending load or completion
// each slot holds; nothing reads wall time, so the same seed and
// configuration produce a bit-identical snapshot stream and summary on any
// machine. The single ICAP is a FIFO resource: every load, context save and
// context restore books occupancy in request order, with transfer times
// derived from the paper's bitstream-size math (Eqs. (18)-(23)) through an
// icap.Estimator. Preemption charges the GCAPTURE settle plus a save
// readback, re-queues the victim with its remaining time and a restore
// flag, and never aborts an in-flight transfer — a loading slot is neither
// schedulable nor preemptible.
//
// Scheduling is pluggable through the Policy interface; FCFSBestFit,
// PreemptPriority (task-based preemptive scheduling in the spirit of
// Rodriguez-Canal et al. 2023) and ReconfigAware (which charges bitstream
// load time when choosing victims) are built in. CoExplore closes the loop
// with the design-space explorer: each exact-Pareto-front PRR organization
// is realized as a Platform and scored against one seeded job mix, ranking
// organizations by the schedule-aware metrics (p99 waiting time,
// utilization, reconfigurations, ICAP busy fraction) the area/latency front
// alone cannot see.
package sim
