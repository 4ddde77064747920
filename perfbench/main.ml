(* Runs one benchmark workload and prints its result; see README.md.

   perfbench/main.exe --workload NAME --seed N --seconds S --trace 0|1

   The last line of stdout is the result object; the exit code is 0
   only when every correctness check passed. *)

let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref None and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Int (fun s -> seed := Some s), "N input seed");
      ("--seconds", Arg.Set_float seconds, "S minimum measured time");
      ("--trace", Arg.Set_int trace, "0|1 per-layer metrics instead of end-to-end");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let fail msg =
    prerr_endline msg;
    exit 2
  in
  let seed = match !seed with Some s -> s | None -> fail "--seed is required" in
  if !trace <> 0 && !trace <> 1 then fail "--trace must be 0 or 1";
  if not (Float.is_finite !seconds && !seconds >= 0.0) then fail "--seconds must be >= 0";
  let trace = !trace = 1 and seconds = !seconds in
  let outcome =
    match !workload with
    | "kv_zipf_read" -> Perfbench.Kv_bench.(run zipf_read full ~seed ~seconds ~trace)
    | "kv_put_ec" -> Perfbench.Kv_bench.(run put_ec full ~seed ~seconds ~trace)
    | "graph_mira" -> Perfbench.Graph_bench.(run full ~seed ~seconds ~trace)
    | w ->
      fail
        (Printf.sprintf "unknown workload %S (one of: %s)" w
           (String.concat ", " (List.map (fun w -> w.Perfbench.Catalog.w_name) Perfbench.Catalog.workloads)))
  in
  Perfbench.Emit.print ~trace outcome;
  if not (Perfbench.Emit.correct outcome) then exit 1
