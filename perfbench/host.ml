(* Host-side measurement: a monotonic nanosecond clock, spans over
   calls into the system, and the process's peak resident set.  Every
   host number the benchmark prints comes from here; simulated numbers
   never do. *)

let now_ns () = Monotonic_clock.now ()

(** [timed f] runs [f] and returns its result with the elapsed host
    nanoseconds. *)
let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, Int64.sub (now_ns ()) t0)

let seconds ns = Int64.to_float ns /. 1e9

(** Collect the previous run's garbage before the next one starts, so
    a run neither pays for its predecessor's collection nor stacks its
    heap on top of it (which would make the peak resident set depend on
    when the collector last ran). *)
let settle () = Gc.compact ()

(* The machine this benchmark grew up on (a 2-vCPU VM) runs a process
   up to 2x slower than another, and switches speed for seconds at a
   time.  A fixed stdlib workload — hash-table inserts and random
   lookups over a table larger than the caches, allocation- and
   pointer-heavy like the simulator, and touching no code of this
   repository — is timed between consecutive samples; it slows down
   with the machine (correlation 0.95 with a graph_mira execution over
   40 alternations; the ratio varied 1.5% across five processes whose
   raw times varied 2x; a table half this size fits the caches better
   and tracks the machine far worse), so dividing by it cancels the
   machine's state while keeping every change to the code measured. *)
let reference_ns () =
  settle ();
  let t0 = now_ns () in
  let h = Hashtbl.create 1024 in
  let x = ref 7 in
  let next () =
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    !x land 0xfffff
  in
  for i = 0 to 200_000 do
    Hashtbl.replace h (next ()) (i, [ i ])
  done;
  let sum = ref 0 in
  for _ = 0 to 400_000 do
    match Hashtbl.find_opt h (next ()) with Some (a, _) -> sum := !sum + a | None -> ()
  done;
  ignore (Sys.opaque_identity !sum);
  Int64.sub (now_ns ()) t0

(** Seconds of the reference workload that define the normalized unit:
    a normalized second is a second on a machine, or in a machine state,
    in which [reference_ns ()] takes this long. *)
let reference_s = 0.15

(** Successive reference timings bracketing the samples of a run. *)
type meter = {
  mutable last_ref_ns : int64 option;
  mutable refs : float list;  (** seconds, newest first *)
  mutable rss_before_ref_mb : float option;
}

let meter () = { last_ref_ns = None; refs = []; rss_before_ref_mb = None }

(** Peak resident set of this process (VmHWM), in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
        (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> failwith "VmHWM missing from /proc/self/status"
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(** Call after each sample: times the reference and returns the factor
    turning the sample's host seconds into normalized seconds, from the
    mean of the reference timings just before and after it (only after,
    for the first sample). *)
let speed m =
  (* The reference's table would stay resident and set the peak. *)
  if m.rss_before_ref_mb = None then m.rss_before_ref_mb <- Some (peak_rss_mb ());
  let after = reference_ns () in
  let mean =
    match m.last_ref_ns with
    | Some before -> Int64.to_float (Int64.add before after) /. 2e9
    | None -> seconds after
  in
  m.last_ref_ns <- Some after;
  m.refs <- seconds after :: m.refs;
  reference_s /. mean

(** The workload's peak resident set: VmHWM before the reference first
    ran, i.e. over the run's first sample.  Every sample of a run
    builds the same structures, and on graph_mira the first sample is
    the controller's set-up, which holds more than an execution. *)
let workload_peak_rss_mb m =
  match m.rss_before_ref_mb with Some mb -> mb | None -> peak_rss_mb ()

let median = function
  | [] -> invalid_arg "Host.median: no samples"
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(** A named host span split into named parts plus the untimed
    remainder, all in integer nanoseconds so the parts sum exactly to
    the total. *)
type breakdown = { span : string; total_ns : int64; parts : (string * int64) list }

let remainder b =
  List.fold_left (fun acc (_, ns) -> Int64.sub acc ns) b.total_ns b.parts

let print_breakdown b =
  Printf.printf "span %-18s total %12Ld ns =" b.span b.total_ns;
  List.iter (fun (name, ns) -> Printf.printf " %s %Ld +" name ns) b.parts;
  Printf.printf " untimed %Ld\n" (remainder b)
