(* Counters read from the system's public statistics after a run:
   nothing here hooks into the library, it only reads what the
   runtime, net, scheduler, cluster and stall ledger already publish.
   Per-layer metric names follow Catalog.per_layer. *)

module R = Mira_runtime.Runtime
module Net = Mira_sim.Net
module Cluster = Mira_sim.Cluster
module Sched = Mira_sim.Sched
module Attribution = Mira_telemetry.Attribution
module Metrics = Mira_telemetry.Metrics

type t = {
  wire_bytes : int;  (** net bytes in + out, parity writes included *)
  net : (string * float) list;
  cache : (string * float) list;
  sched : (string * float) list;
  dispatched : int;
  cluster : (string * float) list;
  stall : (string * float) list;  (** ledger buckets, ms *)
  ledger_ok : (unit, string) result;
  lost_bytes : int;
}

(* Sum of the published counters named [section.<name>.<field>] (one
   per cache section) plus the swap section's [swap.<swap_field>]. *)
let cache_sum reg field swap_field =
  List.fold_left
    (fun acc name ->
      let parts = String.split_on_char '.' name in
      let hit =
        match parts with
        | [ "section"; _; f ] -> f = field
        | [ "swap"; f ] -> Some f = swap_field
        | _ -> false
      in
      if not hit then acc
      else
        match Metrics.find reg name with
        | Some (Metrics.Counter n) -> acc +. float_of_int n
        | Some (Metrics.Gauge g) -> acc +. g
        | _ -> acc)
    0.0 (Metrics.names reg)

let read rt ~elapsed_ns =
  let reg = Metrics.create () in
  R.publish rt reg;
  let ns = Net.stats (R.net rt) in
  let cs = Cluster.stats (R.cluster rt) in
  let sched = R.sched rt in
  let attr = R.attribution rt in
  let wire_bytes = ns.Net.bytes_in + ns.Net.bytes_out in
  let bw = (Net.params (R.net rt)).Mira_sim.Params.bandwidth_bytes_per_ns in
  let hits = cache_sum reg "hits" (Some "hits") in
  let misses = cache_sum reg "misses" (Some "faults") in
  let i = float_of_int in
  let blocks = Sched.block_counts sched in
  let block k = i (Option.value ~default:0 (List.assoc_opt k blocks)) in
  let stall c = Attribution.cause_ns attr c /. 1e6 in
  {
    wire_bytes;
    net =
      [
        ("net.msg_count", i ns.Net.msg_count);
        ("net.doorbells", i ns.Net.doorbells);
        ("net.bytes_demand", i ns.Net.bytes_demand);
        ("net.bytes_prefetch", i ns.Net.bytes_prefetch);
        ("net.bytes_writeback", i ns.Net.bytes_writeback);
        ("net.retries", i ns.Net.retries);
        ("net.timeouts", i ns.Net.timeouts);
        (* Wire time at link bandwidth over the run's simulated span:
           the share of the run the link carried payload. *)
        ( "net.wire_busy_frac",
          if elapsed_ns > 0.0 then i wire_bytes /. bw /. elapsed_ns else 0.0 );
      ];
    cache =
      [
        ("cache.hit_ratio", if hits +. misses > 0.0 then hits /. (hits +. misses) else 0.0);
        ("cache.misses", misses);
        ("cache.late_prefetch", cache_sum reg "late_prefetch" (Some "late_readahead"));
        ("cache.evictions", cache_sum reg "evictions" (Some "evictions"));
        ("cache.writebacks", cache_sum reg "writebacks" (Some "writebacks"));
        ("cache.hit_ms", cache_sum reg "hit_ns" None /. 1e6);
        ("cache.miss_ms", cache_sum reg "miss_ns" (Some "fault_ns") /. 1e6);
      ];
    sched =
      [
        ("sched.dispatched", i (Sched.dispatched sched));
        ("sched.block.net_completion", block "net_completion");
        ("sched.block.cache_fill", block "cache_fill");
        ("sched.block.timer", block "timer");
      ];
    dispatched = Sched.dispatched sched;
    cluster =
      [
        ("cluster.replication_bytes", i cs.Cluster.replication_bytes);
        ("cluster.reconstructions", i cs.Cluster.reconstructions);
        ("cluster.failovers", i cs.Cluster.failovers);
        ("cluster.lost_bytes", i cs.Cluster.lost_bytes);
      ];
    stall =
      [
        ("runtime.stall_ms", Attribution.total_ns attr /. 1e6);
        ("stall.queueing_ms", stall Attribution.Queueing);
        ("stall.demand_wire_ms", stall Attribution.Demand_wire);
        ("stall.reconstruct_ms", stall Attribution.Reconstruct);
        ("stall.failover_recovery_ms", stall Attribution.Failover_recovery);
      ];
    ledger_ok = Attribution.check attr;
    lost_bytes = R.lost_bytes_total rt;
  }

(** Every per-layer metric these counters provide. *)
let layer_metrics t =
  t.net @ t.cache @ t.sched @ t.cluster @ t.stall
  @ [ ("runtime.ledger_conserved", if Result.is_ok t.ledger_ok then 1.0 else 0.0) ]
