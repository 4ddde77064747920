(* graph_mira: the paper's running example (graph traversal, the
   B[A[i]] indirect pattern) compiled by the controller at 20% local
   memory.

   Set-up builds the program from the seed and runs
   [Controller.optimize]; it is repeated [setups] times and must reach
   the same plan every time.  The measured phase executes the compiled
   program on a fresh instantiation until [seconds] have passed; one
   op is one execution, so the per-op latency percentiles both equal
   the simulated time of [work].

   Tracing wraps the instantiated runtime's [Memsys.t] record (load,
   store, prefetch and flush calls) to count and time them; the
   interpreter's self time is the execution span minus that.  The
   wrapper only reads the host clock, so every simulated figure of a
   traced execution must equal the untraced one bit for bit. *)

module G = Mira_workloads.Graph_traversal
module C = Mira.Controller
module Machine = Mira_interp.Machine
module Value = Mira_interp.Value
module Memsys = Mira_runtime.Memsys
module R = Mira_runtime.Runtime
module Net = Mira_sim.Net
module Decision = Mira_telemetry.Decision

type size = {
  edges : int;
  nodes : int;
  iterations : int;  (** controller rounds *)
  setups : int;  (** set-up repetitions; setup_s is their median *)
  min_execs : int;
}

let full = { edges = 20_000; nodes = 2_000; iterations = 4; setups = 2; min_execs = 3 }
let smoke = { edges = 2_000; nodes = 200; iterations = 1; setups = 1; min_execs = 1 }

let local_ratio = 0.2

let program_config size =
  { G.config_default with G.num_edges = size.edges; num_nodes = size.nodes }

(* The edges are drawn by the program's [rand_int] intrinsic, which the
   machine seeds from the controller's [seed]: that is how the input
   seed reaches the program. *)
let options size ~seed gc =
  let far = G.far_bytes gc in
  {
    (C.options_default
       ~local_budget:(int_of_float (local_ratio *. float_of_int far))
       ~far_capacity:(Mira_util.Misc.round_up (4 * far) 4096))
    with
    C.max_iterations = size.iterations;
    seed;
  }

(* Calls into the memory system, counted and timed from outside. *)
type probe = {
  mutable loads : int;
  mutable stores : int;
  mutable prefetches : int;
  mutable self_ns : int64;
  mutable work_bytes : int;  (** net bytes in + out while [work] ran *)
}

let new_probe () =
  { loads = 0; stores = 0; prefetches = 0; self_ns = 0L; work_bytes = 0 }

let net_bytes ms =
  let s = Net.stats ms.Memsys.net in
  s.Net.bytes_in + s.Net.bytes_out

(* [enter]/[exit_] of the measured function bracket its wire bytes in
   every run; the per-call timers are added only when traced. *)
let wrap ~trace ms p =
  let timed f =
    let t0 = Host.now_ns () in
    let r = f () in
    p.self_ns <- Int64.add p.self_ns (Int64.sub (Host.now_ns ()) t0);
    r
  in
  let bracketed =
    {
      ms with
      Memsys.enter =
        (fun ~tid fn ->
          if fn = "work" then p.work_bytes <- p.work_bytes - net_bytes ms;
          ms.Memsys.enter ~tid fn);
      exit_ =
        (fun ~tid fn ->
          ms.Memsys.exit_ ~tid fn;
          if fn = "work" then p.work_bytes <- p.work_bytes + net_bytes ms);
    }
  in
  if not trace then bracketed
  else
    {
      bracketed with
      Memsys.load =
        (fun ~tid ~ptr ~len ~native ->
          p.loads <- p.loads + 1;
          timed (fun () -> ms.Memsys.load ~tid ~ptr ~len ~native));
      store =
        (fun ~tid ~ptr ~len ~native ~value ->
          p.stores <- p.stores + 1;
          timed (fun () -> ms.Memsys.store ~tid ~ptr ~len ~native ~value));
      prefetch =
        (fun ~tid ~ptr ~len ->
          p.prefetches <- p.prefetches + 1;
          timed (fun () -> ms.Memsys.prefetch ~tid ~ptr ~len));
      flush_evict =
        (fun ~tid ~ptr ~len -> timed (fun () -> ms.Memsys.flush_evict ~tid ~ptr ~len));
    }

type setup = {
  compiled : C.compiled;
  build_ns : int64;
  optimize_ns : int64;
  instantiate_ns : int64;
  total_ns : int64;
}

let set_up size ~seed =
  Host.settle ();
  let t0 = Host.now_ns () in
  let gc = program_config size in
  let prog, build_ns = Host.timed (fun () -> G.build gc) in
  let compiled, optimize_ns = Host.timed (fun () -> C.optimize (options size ~seed gc) prog) in
  let _, instantiate_ns = Host.timed (fun () -> C.instantiate compiled) in
  { compiled; build_ns; optimize_ns; instantiate_ns; total_ns = Int64.sub (Host.now_ns ()) t0 }

type exec = {
  value : Value.t;
  work_ns : float;  (** simulated *)
  run_ns : int64;  (** host, [measure_work] only *)
  ops : int;
  probe : probe;
  counters : Counters.t;
}

let execute ~trace compiled =
  let opts = compiled.C.c_options in
  Host.settle ();
  let rt, _ = C.instantiate compiled in
  let p = new_probe () in
  let ms = wrap ~trace (R.memsys rt) p in
  let machine =
    Machine.create ~nthreads:opts.C.nthreads ~seed:opts.C.seed
      ~honor_offload:opts.C.feat_offload ms compiled.C.c_program
  in
  let (value, work_ns), run_ns = Host.timed (fun () -> C.measure_work ms machine) in
  {
    value;
    work_ns;
    run_ns;
    ops = Machine.ops_executed machine;
    probe = p;
    counters = Counters.read rt ~elapsed_ns:(ms.Memsys.elapsed ());
  }

let native_result size ~seed =
  let gc = program_config size in
  let opts = options size ~seed gc in
  let ms = Mira_baselines.Native.create ~params:opts.C.params ~capacity:opts.C.far_capacity () in
  let machine = Machine.create ~nthreads:opts.C.nthreads ~seed:opts.C.seed ms (G.build gc) in
  C.measure_work ms machine

let same_sim a b =
  Value.equal a.value b.value && a.work_ns = b.work_ns && a.ops = b.ops
  && a.probe.work_bytes = b.probe.work_bytes

(* Controller decisions that evaluate a configuration by running it. *)
let is_eval = function
  | Decision.Profile_run _ | Decision.Size_sample _ | Decision.Joint_sample _
  | Decision.Placement_sample _ | Decision.Measure _ ->
    true
  | Decision.Select _ | Decision.Analyze _ | Decision.Plan_section _
  | Decision.Accept _ | Decision.Rollback _ ->
    false

let run size ~seed ~seconds ~trace =
  let meter = Host.meter () in
  (* each sample with its factor to normalized seconds *)
  let sampled f = let x = f () in (x, Host.speed meter) in
  let setup_samples = List.init size.setups (fun _ -> sampled (fun () -> set_up size ~seed)) in
  let setups = List.map fst setup_samples in
  let compiled = (List.hd setups).compiled in
  List.iter
    (fun s ->
      Printf.printf "setup    build %.3f s  optimize %.3f s  instantiate %.3f s  work %.3f ms  %d decisions\n%!"
        (Host.seconds s.build_ns) (Host.seconds s.optimize_ns)
        (Host.seconds s.instantiate_ns) (s.compiled.C.c_work_ns /. 1e6)
        (List.length s.compiled.C.c_log))
    setups;
  let start = Host.now_ns () in
  let rec loop acc n =
    if n >= size.min_execs && Host.seconds (Int64.sub (Host.now_ns ()) start) >= seconds
    then List.rev acc
    else loop (sampled (fun () -> execute ~trace compiled) :: acc) (n + 1)
  in
  let exec_samples = loop [] 0 in
  let execs = List.map fst exec_samples in
  let e0 = List.hd execs in
  let native_value, native_ns = native_result size ~seed in
  Printf.printf "measured %d executions: work %.6f ms simulated (native %.6f ms, slowdown %.3fx), result %s\n%!"
    (List.length execs) (e0.work_ns /. 1e6) (native_ns /. 1e6) (e0.work_ns /. native_ns)
    (Format.asprintf "%a" Value.pp e0.value);
  (* untraced executions to compare the traced ones with *)
  let untraced =
    if trace then
      Some (List.init size.min_execs (fun _ -> sampled (fun () -> execute ~trace:false compiled)))
    else None
  in
  let n = List.length execs in
  let exec_checks e =
    [
      Emit.check "result = native run" (Value.equal e.value native_value)
        (Format.asprintf "%a vs native %a" Value.pp e.value Value.pp native_value);
      Emit.check "executions reproduce" (same_sim e e0) "";
      Emit.check "ledger conserved" (Result.is_ok e.counters.Counters.ledger_ok)
        (match e.counters.Counters.ledger_ok with Ok () -> "" | Error m -> m);
    ]
  in
  (* Checks of the whole run: a failure invalidates every execution. *)
  let run_checks =
    List.map
      (fun s ->
        Emit.check "set-up reaches the same plan"
          (s.compiled.C.c_work_ns = compiled.C.c_work_ns && s.compiled.C.c_log = compiled.C.c_log)
          "")
      setups
    @ List.map
        (fun (u, _) -> Emit.check "traced = untraced (simulated)" (same_sim u e0) "")
        (Option.value ~default:[] untraced)
  in
  let per_exec = List.map exec_checks execs in
  let checks = Emit.group (List.concat per_exec @ run_checks) in
  let failed =
    if Emit.failed_ops ~ops:1 run_checks > 0 then n
    else List.fold_left (fun acc cs -> acc + Emit.failed_ops ~ops:1 cs) 0 per_exec
  in
  Printf.printf "run      normalized seconds per execution:%s\n"
    (String.concat ""
       (List.map (fun (e, speed) -> Printf.sprintf " %.3f" (Host.seconds e.run_ns *. speed)) exec_samples));
  let work_us = e0.work_ns /. 1e3 in
  let normalized f samples = Host.median (List.map (fun (x, speed) -> Host.seconds (f x) *. speed) samples) in
  Printf.printf "host     raw medians: setup %.3f s  run %.4f s  reference %.4f s\n"
    (Host.median (List.map (fun s -> Host.seconds s.total_ns) setups))
    (Host.median (List.map (fun e -> Host.seconds e.run_ns) execs))
    (Host.median meter.Host.refs);
  let e2e =
    [
      Emit.e2e_metric "setup_s" ~samples:size.setups (normalized (fun s -> s.total_ns) setup_samples);
      Emit.e2e_metric "run_s" ~samples:n (normalized (fun e -> e.run_ns) exec_samples);
      Emit.e2e_metric "peak_rss_mb" ~samples:1 (Host.workload_peak_rss_mb meter);
      Emit.e2e_metric "sim_p50_us" ~samples:n work_us;
      Emit.e2e_metric "sim_p99_us" ~samples:n work_us;
      (* no latency limit: the highest rate without a growing backlog
         is one execution after another *)
      Emit.e2e_metric "max_krps_at_slo" ~samples:n (1e6 /. e0.work_ns);
      Emit.e2e_metric "sim_work_ms" ~samples:n (e0.work_ns /. 1e6);
      Emit.e2e_metric "wire_bytes_per_op" ~samples:n (float_of_int e0.probe.work_bytes);
    ]
  in
  let layers, spans =
    match untraced with
    | None -> ([], [])
    | Some us ->
      let med f = Host.median (List.map f execs) in
      let runtime_s = med (fun e -> Host.seconds e.probe.self_ns) in
      let interp_s = med (fun e -> Host.seconds (Int64.sub e.run_ns e.probe.self_ns)) in
      let optimize_s = Host.median (List.map (fun s -> Host.seconds s.optimize_ns) setups) in
      let evals = List.length (List.filter is_eval compiled.C.c_log) in
      let rollbacks =
        List.length
          (List.filter (function Decision.Rollback _ -> true | _ -> false) compiled.C.c_log)
      in
      let applies =
        List.init 5 (fun _ ->
            snd
              (Host.timed (fun () ->
                   Mira_passes.Pipeline.apply compiled.C.c_original compiled.C.c_plan
                     ~params:compiled.C.c_options.C.params)))
      in
      let m name v = Emit.layer_metric name ~samples:n v in
      let layers =
        List.map (fun (name, v) -> m name v) (Counters.layer_metrics e0.counters)
        @ [
            m "core.optimize_s" optimize_s;
            m "core.evals" (float_of_int evals);
            m "core.s_per_eval" (optimize_s /. float_of_int (max 1 evals));
            m "core.iterations" (float_of_int compiled.C.c_iterations);
            m "core.rollbacks" (float_of_int rollbacks);
            m "passes.apply_s" (Host.median (List.map Host.seconds applies));
            m "interp.ops" (float_of_int e0.ops);
            m "interp.self_s" interp_s;
            m "interp.ns_per_op" (interp_s *. 1e9 /. float_of_int (max 1 e0.ops));
            m "runtime.loads" (float_of_int e0.probe.loads);
            m "runtime.stores" (float_of_int e0.probe.stores);
            m "runtime.prefetches" (float_of_int e0.probe.prefetches);
            m "runtime.self_s" runtime_s;
            (* the interpreter drives no scheduler tasks *)
            m "sched.ns_per_dispatch" 0.0;
            m "trace.overhead_frac"
              ((normalized (fun e -> e.run_ns) exec_samples
               /. normalized (fun e -> e.run_ns) us)
              -. 1.0);
          ]
      in
      let spans =
        List.map
          (fun s ->
            {
              Host.span = "setup";
              total_ns = s.total_ns;
              parts =
                [
                  ("build", s.build_ns);
                  ("core.optimize", s.optimize_ns);
                  ("instantiate", s.instantiate_ns);
                ];
            })
          setups
        @ List.map
            (fun e ->
              {
                Host.span = "run";
                total_ns = e.run_ns;
                parts = [ ("runtime.self", e.probe.self_ns) ];
              })
            execs
      in
      (layers, spans)
  in
  { Emit.e2e; layers; spans; attempted = n; failed; checks }
