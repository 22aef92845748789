// Space-bounded scheduler for ND programs on a PMH (Sec. 4), a policy on
// the shared discrete-event core (sched/sim_core.hpp); registered as "sb".
//
// Faithful elements:
//  * Anchoring: a σMi-maximal task is anchored to a level-i cache below its
//    parent task's anchor, only once it is FULLY READY (every dataflow
//    arrow entering its subtree from outside is satisfied) — this is where
//    the ND model's extra parallelism shows up, because partial
//    dependencies make subtasks ready earlier than the NP serial elision.
//  * Boundedness: the sum of sizes of tasks anchored to a cache of size M
//    never exceeds σM (capacity reservation for the task's lifetime).
//  * Allocation: a task of size S anchored at level i leases
//    gi(S) = min{fi, max{1, ⌊fi·(3S/Mi)^α'⌋}} free level-(i-1) subclusters
//    of its anchor; its subtasks may only anchor on leased subclusters.
//  * Miss accounting: anchoring a task of size s at level i loads its
//    footprint once — s misses at level i (this is exactly the Theorem 1 /
//    Q*(t;σMi) accounting); the latency s·Ci is spread uniformly over the
//    task's serial execution units so that it parallelizes the way the
//    Eq. (22) bound assumes. That is the *charged* model; under
//    SchedOptions::measure_misses the core also *measures* misses with a
//    per-cache LRU occupancy simulation, in which sb pins each anchored
//    footprint for the task's lifetime (the boundedness reservation), so
//    measured Q_i <= charged misses <= Q*(t;σMi) — the testable form of
//    Theorem 1 (see DESIGN.md, "Cache-miss accounting").
//
// Simplifications are documented in DESIGN.md.
#pragma once

#include "sched/sim_core.hpp"

namespace ndf {

/// The perfectly-load-balanced reference of Eq. (22) plus work:
/// (T1 + Σi Q*(t;σMi)·Ci) / p.
double sb_balanced_bound(const SpawnTree& tree, const Pmh& machine,
                         double sigma = 1.0 / 3.0);

}  // namespace ndf
