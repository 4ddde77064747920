(* The benchmark's metric and workload catalogue.  BENCHMARK.json at
   the repository root mirrors the workloads and metrics listed here
   (the tests check that they agree); the "moves" column — which
   end-to-end metric, on which workload, each per-layer metric is
   expected to move — lives only here and in README.md, because
   BENCHMARK.json has a fixed set of keys (so does the held-out seed,
   which README.md records). *)

type better = Lower | Higher

let better_name = function Lower -> "lower" | Higher -> "higher"

type workload = { w_name : string; why : string }

let workloads =
  [
    {
      w_name = "kv_zipf_read";
      why =
        "hit-dominated multi-tenant Zipf get mix: scheduler and section hit \
         path do the work; interpreter, controller and cluster bypassed";
    };
    {
      w_name = "kv_put_ec";
      why =
        "uniform 50% puts on EC(4,2) with overlapping node outages: \
         miss/bandwidth-bound, parity fan-out and degraded reconstruction";
    };
    {
      w_name = "graph_mira";
      why =
        "the paper's compiled graph traversal at 20% local memory: the only \
         workload where analysis, passes, controller and interpreter work";
    };
  ]

type e2e = { name : string; unit_ : string; better : better; bound : float }

(* Bounds are shares of the parent's median.  Simulated figures vary
   only with the seed (they repeat exactly for a fixed one), host
   figures also with the machine's load; each bound sits above three
   times the quartile spread measured over ten seeds (README.md). *)
let end_to_end =
  [
    { name = "setup_s"; unit_ = "s"; better = Lower; bound = 0.25 };
    { name = "run_s"; unit_ = "s"; better = Lower; bound = 0.25 };
    { name = "peak_rss_mb"; unit_ = "MiB"; better = Lower; bound = 0.2 };
    { name = "sim_p50_us"; unit_ = "us"; better = Lower; bound = 0.1 };
    { name = "sim_p99_us"; unit_ = "us"; better = Lower; bound = 0.2 };
    { name = "max_krps_at_slo"; unit_ = "krps"; better = Higher; bound = 0.2 };
    { name = "sim_work_ms"; unit_ = "ms"; better = Lower; bound = 0.05 };
    { name = "wire_bytes_per_op"; unit_ = "B/op"; better = Lower; bound = 0.05 };
  ]

type layer = {
  l_name : string;
  l_unit : string;
  l_better : better;
  moves : (string * string) list;  (** (end-to-end metric, workload) *)
}

let all_kv = [ "kv_zipf_read"; "kv_put_ec" ]

let on metrics workloads =
  List.concat_map (fun m -> List.map (fun w -> (m, w)) workloads) metrics

let layer ?(better = Lower) l_unit moves l_name =
  { l_name; l_unit; l_better = better; moves }

let core_moves = on [ "setup_s"; "sim_work_ms" ] [ "graph_mira" ]
let runtime_moves =
  on [ "run_s"; "setup_s"; "sim_work_ms" ] [ "graph_mira" ]

let cache_moves =
  on [ "sim_p50_us" ] [ "kv_zipf_read" ]
  @ on [ "sim_work_ms" ] [ "graph_mira" ]
  @ on [ "max_krps_at_slo" ] [ "kv_put_ec" ]

let sched_moves = on [ "run_s" ] all_kv

let net_moves =
  on [ "wire_bytes_per_op"; "sim_p99_us"; "max_krps_at_slo" ] [ "kv_put_ec" ]
  @ on [ "sim_work_ms" ] [ "graph_mira" ]

let cluster_moves =
  on [ "sim_p99_us"; "wire_bytes_per_op" ] [ "kv_put_ec" ]

let per_layer =
  [
    layer "s" core_moves "core.optimize_s";
    layer ~better:Higher "count" core_moves "core.evals";
    layer "s" core_moves "core.s_per_eval";
    layer ~better:Higher "count" core_moves "core.iterations";
    layer "count" core_moves "core.rollbacks";
    layer "s" (on [ "setup_s" ] [ "graph_mira" ]) "passes.apply_s";
    layer "count" (on [ "run_s"; "setup_s" ] [ "graph_mira" ]) "interp.ops";
    layer "s" (on [ "run_s"; "setup_s" ] [ "graph_mira" ]) "interp.self_s";
    layer "ns" (on [ "run_s"; "setup_s" ] [ "graph_mira" ]) "interp.ns_per_op";
    layer "count" runtime_moves "runtime.loads";
    layer "count" runtime_moves "runtime.stores";
    layer ~better:Higher "count" runtime_moves "runtime.prefetches";
    layer "s" runtime_moves "runtime.self_s";
    layer "ms" runtime_moves "runtime.stall_ms";
    layer ~better:Higher "bool" runtime_moves "runtime.ledger_conserved";
    layer ~better:Higher "frac" cache_moves "cache.hit_ratio";
    layer "count" cache_moves "cache.misses";
    layer "count" cache_moves "cache.late_prefetch";
    layer "count" cache_moves "cache.evictions";
    layer "count" cache_moves "cache.writebacks";
    layer "ms" cache_moves "cache.hit_ms";
    layer "ms" cache_moves "cache.miss_ms";
    layer "count" sched_moves "sched.dispatched";
    layer "ns" sched_moves "sched.ns_per_dispatch";
    layer "count" sched_moves "sched.block.net_completion";
    layer "count" sched_moves "sched.block.cache_fill";
    layer "count" sched_moves "sched.block.timer";
    layer "count" net_moves "net.msg_count";
    layer "count" net_moves "net.doorbells";
    layer "B" net_moves "net.bytes_demand";
    layer "B" net_moves "net.bytes_prefetch";
    layer "B" net_moves "net.bytes_writeback";
    layer "count" net_moves "net.retries";
    layer "count" net_moves "net.timeouts";
    layer "frac" net_moves "net.wire_busy_frac";
    layer "ms" net_moves "stall.queueing_ms";
    layer "ms" net_moves "stall.demand_wire_ms";
    layer "B" cluster_moves "cluster.replication_bytes";
    layer "count" cluster_moves "cluster.reconstructions";
    layer "count" cluster_moves "cluster.failovers";
    layer "B" cluster_moves "cluster.lost_bytes";
    layer "ms" cluster_moves "stall.reconstruct_ms";
    layer "ms" cluster_moves "stall.failover_recovery_ms";
    (* The benchmark's own cost: traced run_s over untraced, minus 1.
       It moves nothing; it says how far the traced figures can be
       trusted. *)
    layer "frac" [] "trace.overhead_frac";
  ]

let valid_name s =
  String.length s > 0
  && String.length s <= 64
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s
  && match s.[0] with '_' | '.' | '-' -> false | _ -> true
