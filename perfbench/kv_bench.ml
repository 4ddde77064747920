(* The two serving workloads, kv_zipf_read and kv_put_ec.

   Each runs [Kv_serving] open loop (Poisson arrivals, latency timed
   from each request's due time) on a rate ladder with the master
   seed, then runs the nominal rate again with derived seeds.  The
   per-request figures are medians over those nominal runs: caches
   start cold after [reset_timing], and on kv_zipf_read the slowest
   0.1% of an 80k-request run are mostly the first millisecond's cold
   misses, so one run's p999 moves by a third from seed to seed; the
   median of independent inputs does not.  Every simulated number is
   a pure function of the seed; only the host timings vary. *)

module K = Mira_workloads.Kv_serving
module R = Mira_runtime.Runtime
module Cluster = Mira_sim.Cluster

type size = {
  requests : int;  (** per tenant *)
  max_replicas : int;  (** caps [spec.replicas] *)
}

let full = { requests = 20_000; max_replicas = max_int }
let smoke = { requests = 300; max_replicas = 2 }

type spec = {
  name : string;
  base : K.config;
  ladder_mrps : float list;  (** aggregate offered rates, ascending *)
  nominal_mrps : float;
  replicas : int;  (** nominal runs, the master seed's included *)
  cluster : seed:int -> Cluster.spec;
  reference_check : bool;
      (** compare the master seed's checksum with a fault-free
          single-node run of the same requests *)
}

(* Two overlapping outages, fixed in simulated time: one node crashes
   at 0.1 ms, a second (a different node) at 0.3 ms, and both stay down
   past the end of every ladder run, so each run is served degraded:
   reads of the lost chunks are decoded from k survivors.  Never more
   than m = 2 nodes are down, so reads stay within quorum and must
   decode bit-identically.  Which nodes fail is drawn from the seed.
   Failing over with the caches still nearly empty keeps the failover
   flush short: a crash mid-run stalls the link for a few hundred
   microseconds, and whichever percentile lands on the edge of that
   burst moves by a fifth from seed to seed. *)
let ec_cluster ~seed =
  let rng = Mira_util.Prng.create (Hashtbl.hash ("kv_put_ec.crashes", seed)) in
  let a = Mira_util.Prng.int rng 6 in
  let b = (a + 1 + Mira_util.Prng.int rng 5) mod 6 in
  let down = { Cluster.ev_node = a; ev_at = 1e5; ev_down_for = 1e9 } in
  Cluster.ec ~placement:Cluster.Rotate ~nodes:6 ~k:4 ~m:2
    [ down; { down with Cluster.ev_node = b; ev_at = 3e5 } ]

let zipf_read =
  {
    name = "kv_zipf_read";
    base = K.config_default;
    (* ≤ 1.25x steps around the knee, where p99 crosses the SLO
       between 1.43 and 1.66 Mrps *)
    ladder_mrps = [ 1.25; 1.43; 1.66; 1.9 ];
    nominal_mrps = 1.25;
    replicas = 7;
    cluster = (fun ~seed:_ -> Cluster.spec_default);
    reference_check = false;
  }

let put_ec =
  {
    name = "kv_put_ec";
    base =
      {
        K.config_default with
        K.zipf_s = 0.0;
        get_fraction = 0.5;
        local_ratio = 0.25;
        line = 1024;
      };
    (* 1.25x steps from a point the degraded cluster still serves
       within the SLO up past the fault-free knee (1.0-1.25 Mrps) *)
    ladder_mrps = [ 0.64; 0.8; 1.0; 1.25 ];
    nominal_mrps = 0.8;
    replicas = 5;
    cluster = ec_cluster;
    reference_check = true;
  }

let config spec size ~seed ~mrps =
  {
    spec.base with
    K.seed;
    requests = size.requests;
    arrival_ns = float_of_int spec.base.K.tenants *. 1e3 /. mrps;
  }

type point = {
  mrps : float;
  seed : int;
  report : K.report;
  counters : Counters.t;
  setup_ns : int64;  (** median over [setup_reps] creations *)
  create_ns : int64;  (** the creation of the runtime served from *)
  run_ns : int64;
  total_ns : int64;  (** that creation + run + counter reads *)
  speed : float;  (** host seconds to normalized seconds, see [Host.speed] *)
}

let setup_reps = 5

let run_point spec size meter ~seed ~mrps =
  let cfg = config spec size ~seed ~mrps in
  let create () =
    Host.settle ();
    Host.timed (fun () ->
        R.create (R.Config.with_cluster (spec.cluster ~seed) (K.runtime_config cfg)))
  in
  (* Creation takes about a millisecond, mostly page faults zeroing the
     far store: time it [setup_reps] times, keep the median, and serve
     from the last runtime created. *)
  let spare = List.init (setup_reps - 1) (fun _ -> snd (create ())) in
  let t0 = Host.now_ns () in
  let rt, create_ns = create () in
  let setup_ns =
    Int64.of_float (Host.median (List.map Int64.to_float (create_ns :: spare)))
  in
  let report, run_ns = Host.timed (fun () -> K.run_on rt cfg) in
  let counters = Counters.read rt ~elapsed_ns:report.K.elapsed_ns in
  let total_ns = Int64.sub (Host.now_ns ()) t0 in
  { mrps; seed; report; counters; setup_ns; create_ns; run_ns; total_ns; speed = Host.speed meter }

let slo_ns spec = spec.base.K.slo_ns

(* A rate meets the SLO when p99 is within the limit and the backlog
   did not grow: the run completed within 5% of the rate it was
   offered (a growing queue stretches the run past its last arrival,
   so completions fall behind arrivals). *)
let meets spec p =
  p.report.K.agg_p99_ns <= slo_ns spec
  && p.report.K.throughput_rps >= 0.95 *. p.mrps *. 1e6

(** Highest rate meeting the SLO: the last passing ladder point, moved
    towards the first failing one by linear interpolation of p99 (so a
    seed that shifts the knee moves the figure a little instead of a
    whole ladder step).  Below the ladder, the lowest point scaled by
    SLO / p99. *)
let max_krps_at_slo spec ladder =
  let slo = slo_ns spec in
  let rec go prev = function
    | [] -> (match prev with Some p -> p.mrps | None -> 0.0)
    | p :: rest when meets spec p -> go (Some p) rest
    | p :: _ -> (
      match prev with
      | None -> p.mrps *. slo /. p.report.K.agg_p99_ns
      | Some q ->
        let p99_q = q.report.K.agg_p99_ns and p99_p = p.report.K.agg_p99_ns in
        if p99_p <= slo then q.mrps
        else q.mrps +. ((p.mrps -. q.mrps) *. (slo -. p99_q) /. (p99_p -. p99_q)))
  in
  1e3 *. go None ladder

let replica_seed seed i = Hashtbl.hash ("kv.replica", seed, i)

let ops p = p.report.K.r_cfg.K.tenants * p.report.K.r_cfg.K.requests

let same_sim a b =
  let ra = a.report and rb = b.report in
  ra.K.checksum = rb.K.checksum
  && ra.K.agg_p50_ns = rb.K.agg_p50_ns
  && ra.K.agg_p99_ns = rb.K.agg_p99_ns
  && ra.K.agg_p999_ns = rb.K.agg_p999_ns
  && ra.K.elapsed_ns = rb.K.elapsed_ns
  && a.counters.Counters.wire_bytes = b.counters.Counters.wire_bytes

let print_point tag p =
  let r = p.report in
  Printf.printf
    "%-8s seed %-10d rate %5.3f Mrps  p50 %8.2f  p99 %8.2f  p999 %8.2f us  \
     slo_miss %.4f  thr %5.3f Mrps  %s  host %.3f s (%.3f normalized)\n%!"
    tag p.seed p.mrps (r.K.agg_p50_ns /. 1e3) (r.K.agg_p99_ns /. 1e3)
    (r.K.agg_p999_ns /. 1e3) r.K.agg_slo_miss_frac (r.K.throughput_rps /. 1e6)
    (Printf.sprintf "%016Lx" r.K.checksum)
    (Host.seconds p.run_ns) (Host.seconds p.run_ns *. p.speed)

let run spec size ~seed ~seconds ~trace =
  let start = Host.now_ns () in
  let meter = Host.meter () in
  let ladder =
    List.map
      (fun mrps ->
        let p = run_point spec size meter ~seed ~mrps in
        print_point "ladder" p;
        p)
      spec.ladder_mrps
  in
  let nominal_master =
    List.find (fun p -> p.mrps = spec.nominal_mrps) ladder
  in
  let replicas =
    List.init (min spec.replicas size.max_replicas - 1) (fun i ->
        let p =
          run_point spec size meter ~seed:(replica_seed seed (i + 1)) ~mrps:spec.nominal_mrps
        in
        print_point "replica" p;
        p)
  in
  (* Host-timing repeats of the nominal master run until the measured
     phase has lasted [seconds]; they must reproduce it exactly. *)
  let rec repeat acc =
    if Host.seconds (Int64.sub (Host.now_ns ()) start) >= seconds then List.rev acc
    else begin
      let p = run_point spec size meter ~seed ~mrps:spec.nominal_mrps in
      print_point "repeat" p;
      repeat (p :: acc)
    end
  in
  let repeats = repeat [] in
  let nominal = nominal_master :: replicas in
  let all = ladder @ replicas @ repeats in
  (* One reference per workload run: the master-seed runs must all
     match it, whatever their rate. *)
  let reference =
    if spec.reference_check then
      Some (K.run (config spec size ~seed ~mrps:spec.nominal_mrps)).K.checksum
    else None
  in
  let run_checks p =
    let tag = Printf.sprintf "%.3f Mrps seed %d" p.mrps p.seed in
    let c = p.counters in
    let master = p.seed = seed in
    [
      Emit.check "ledger conserved" (Result.is_ok c.Counters.ledger_ok)
        (match c.Counters.ledger_ok with Ok () -> "" | Error e -> tag ^ ": " ^ e);
      Emit.check "no data lost past quorum" (c.Counters.lost_bytes = 0)
        (Printf.sprintf "%s: %d bytes lost" tag c.Counters.lost_bytes);
    ]
    @ (if master then
         [
           Emit.check "checksum independent of rate"
             (p.report.K.checksum = nominal_master.report.K.checksum) tag;
         ]
       else [])
    @ (match reference with
       | Some checksum when master ->
         [ Emit.check "checksum = fault-free single node" (p.report.K.checksum = checksum) tag ]
       | _ -> [])
    @
    if List.memq p repeats then
      [ Emit.check "repeat reproduces nominal run" (same_sim p nominal_master) tag ]
    else []
  in
  let per_run = List.map (fun p -> (p, run_checks p)) all in
  let checks = Emit.group (List.concat_map snd per_run) in
  let failed =
    List.fold_left (fun acc (p, cs) -> acc + Emit.failed_ops ~ops:(ops p) cs) 0 per_run
  in
  let n = List.length nominal in
  let med f = Host.median (List.map f nominal) in
  let normalized f = Host.median (List.map (fun p -> Host.seconds (f p) *. p.speed) all) in
  Printf.printf "host     raw medians: setup %.6f s  run %.3f s  reference %.4f s\n"
    (Host.median (List.map (fun p -> Host.seconds p.setup_ns) all))
    (Host.median (List.map (fun p -> Host.seconds p.run_ns) all))
    (Host.median meter.Host.refs);
  let e2e =
    [
      Emit.e2e_metric "setup_s" ~samples:(List.length all) (normalized (fun p -> p.setup_ns));
      (* every run_on serves the same number of requests with about the
         same number of scheduler dispatches, whatever its rate *)
      Emit.e2e_metric "run_s" ~samples:(List.length all) (normalized (fun p -> p.run_ns));
      Emit.e2e_metric "peak_rss_mb" ~samples:1 (Host.workload_peak_rss_mb meter);
      Emit.e2e_metric "sim_p50_us" ~samples:(n * ops nominal_master)
        (med (fun p -> p.report.K.agg_p50_ns /. 1e3));
      Emit.e2e_metric "sim_p99_us" ~samples:(n * ops nominal_master)
        (med (fun p -> p.report.K.agg_p99_ns /. 1e3));
      Emit.e2e_metric "max_krps_at_slo" ~samples:(List.length ladder)
        (max_krps_at_slo spec ladder);
      Emit.e2e_metric "sim_work_ms" ~samples:n
        (med (fun p -> p.report.K.elapsed_ns /. 1e6));
      Emit.e2e_metric "wire_bytes_per_op" ~samples:(n * ops nominal_master)
        (med (fun p -> float_of_int p.counters.Counters.wire_bytes /. float_of_int (ops p)));
    ]
  in
  let layers, spans =
    if not trace then ([], [])
    else
      let c = nominal_master.counters in
      (* The controller, passes and interpreter are bypassed here; the
         runtime's calls are made inside [Kv_serving.run_on], where the
         benchmark cannot wrap the memory system; and kv runs are traced
         only by benchmark-side spans and counter reads, which the
         untraced run makes as well. *)
      let zero =
        [
          "core.optimize_s"; "core.evals"; "core.s_per_eval"; "core.iterations";
          "core.rollbacks"; "passes.apply_s"; "interp.ops"; "interp.self_s";
          "interp.ns_per_op"; "runtime.loads"; "runtime.stores";
          "runtime.prefetches"; "runtime.self_s"; "trace.overhead_frac";
        ]
      in
      let layers =
        List.map (fun (name, v) -> Emit.layer_metric name ~samples:1 v)
          (Counters.layer_metrics c)
        @ [
            Emit.layer_metric "sched.ns_per_dispatch" ~samples:c.Counters.dispatched
              (Int64.to_float nominal_master.run_ns /. float_of_int (max 1 c.Counters.dispatched));
          ]
        @ List.map (fun name -> Emit.layer_metric name ~samples:0 0.0) zero
      in
      let spans =
        List.map
          (fun p ->
            {
              Host.span = Printf.sprintf "kv@%.3fMrps" p.mrps;
              total_ns = p.total_ns;
              parts = [ ("runtime.create", p.create_ns); ("run_on", p.run_ns) ];
            })
          ladder
      in
      (layers, spans)
  in
  { Emit.e2e; layers; spans; attempted = List.fold_left (fun a p -> a + ops p) 0 all; failed; checks }
