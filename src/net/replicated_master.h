// Replicated FL control plane: N master replicas, one Raft log, zero lost
// rounds.
//
// The single-master cluster (net/cluster.cpp) dies with its master.  Here
// the control state of every round — round start (model id + cohort), each
// accepted worker reply (update/elimination), the aggregation commit, and
// the quiesced client-state snapshots — is replicated through a Raft-style
// log (net/raft.h) across ClusterOptions::replication.replicas master
// replicas before it takes effect.  Each replica applies the committed
// prefix to an identical deterministic state machine, so when the leader
// crashes mid-round the freshly elected leader resumes from the committed
// prefix, re-broadcasts the round it finds open, collects the workers'
// cached (byte-identical) replies, and finishes the round **bit-identically**
// to the fault-free run: model parameters, history, and the
// accuracy-vs-bytes footprint all match exactly.  DESIGN.md §14 gives the
// protocol and the determinism argument.
//
// The open round lives in the single master's net::RoundLedger, driven by
// committed entries.  Byte accounting is split in two:
//   * Logical (the ledger's tally, exactly once per accepted reply — the
//     rule of both masters): drives sim.uploaded_bytes and the footprint
//     curve, hence bit-reproducible.
//   * Physical (ByteMeters): what actually crossed each link, including
//     failover re-broadcasts (metered as retransmissions) — honest overhead
//     numbers that are *not* reproducible under real elections.
// Raft traffic between replicas is metered separately into
// ClusterResult::control_plane_bytes.
//
// With ReplicationOptions::storage_dir set, every replica backs its Raft
// node with a net::RaftStorage (durable WAL + snapshot, DESIGN.md §15), and
// FaultPlan::replica_restart schedules turn a leader kill into a crash-
// *restart*: the killed process sleeps out its downtime, re-opens its
// storage directory (optionally damaged by a StorageFaultInjector), rebuilds
// its state machine from the recovered snapshot, and rejoins as a follower
// — or, when recovery detects unrecoverable corruption, stays down loudly
// (FaultReport::restart_load_errors) rather than rejoin with silently
// wrong state.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/cluster.h"

namespace cmfl::fl {
struct TrainerCheckpoint;
}

namespace cmfl::net {

/// Runs one federated training job under the replicated control plane.
/// Invoked by FlCluster::run()/resume() when replication.replicas > 0;
/// callers go through FlCluster, which validates the option set (>= 3
/// replicas, one shard, a stateless-decode codec).  The recovery options
/// are the single master's: the leader runs the same net::RoundDriver.
///
/// Checkpointing: each replica independently writes
/// `checkpoint_path + ".replica<id>"` when it applies a quiesced
/// client-state entry, so a TrainerCheckpoint survives any minority of
/// replica crashes and resume() works from any replica's file.
ClusterResult run_replicated_cluster(
    std::vector<std::unique_ptr<fl::FlClient>>& clients,
    core::UpdateFilter& filter, const fl::GlobalEvaluator& evaluator,
    const ClusterOptions& options, std::size_t dim,
    const fl::TrainerCheckpoint* resume_from);

}  // namespace cmfl::net
