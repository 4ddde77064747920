(* The benchmark's own tests: the catalogue is well formed and agrees
   with BENCHMARK.json, and a reduced-size run of every workload prints
   every metric with its unit, passes its checks, and finishes in
   seconds. *)

open Perfbench
module Json = Mira_telemetry.Json

let benchmark_json =
  lazy
    (let ic = open_in_bin "../BENCHMARK.json" in
     let s = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic)) in
     match Json.parse s with Ok j -> j | Error e -> Alcotest.failf "BENCHMARK.json: %s" e)

let field name j =
  match Json.member name j with Some v -> v | None -> Alcotest.failf "missing key %S" name

let str j = match j with Json.Str s -> s | _ -> Alcotest.fail "expected a string"
let list j = match j with Json.List l -> l | _ -> Alcotest.fail "expected a list"

let keys j =
  match j with
  | Json.Obj kv -> List.sort compare (List.map fst kv)
  | _ -> Alcotest.fail "expected an object"

let e2e_names = List.map (fun m -> m.Catalog.name) Catalog.end_to_end
let layer_names = List.map (fun l -> l.Catalog.l_name) Catalog.per_layer
let workload_names = List.map (fun w -> w.Catalog.w_name) Catalog.workloads

let test_names () =
  let all = workload_names @ e2e_names @ layer_names in
  List.iter
    (fun n -> Alcotest.(check bool) (n ^ " is a valid name") true (Catalog.valid_name n))
    all;
  Alcotest.(check int) "names are unique" (List.length all)
    (List.length (List.sort_uniq compare all));
  Alcotest.(check bool) "<= 16 end-to-end metrics" true (List.length e2e_names <= 16);
  Alcotest.(check bool) "<= 128 per-layer metrics" true (List.length layer_names <= 128);
  let nw = List.length workload_names in
  Alcotest.(check bool) "2-8 workloads" true (nw >= 2 && nw <= 8);
  List.iter
    (fun m ->
      Alcotest.(check bool) (m.Catalog.name ^ " bound in (0, 0.25]") true
        (m.Catalog.bound > 0.0 && m.Catalog.bound <= 0.25))
    Catalog.end_to_end;
  let setup = List.find (fun m -> m.Catalog.name = "setup_s") Catalog.end_to_end in
  Alcotest.(check bool) "setup_s: s, lower, the largest bound" true
    (setup.Catalog.unit_ = "s" && setup.Catalog.better = Catalog.Lower
    && List.for_all (fun m -> m.Catalog.bound <= setup.Catalog.bound) Catalog.end_to_end)

let test_moves () =
  List.iter
    (fun l ->
      if l.Catalog.l_name <> "trace.overhead_frac" then
        Alcotest.(check bool) (l.Catalog.l_name ^ " moves something") true (l.Catalog.moves <> []);
      List.iter
        (fun (m, w) ->
          Alcotest.(check bool) (l.Catalog.l_name ^ " -> " ^ m) true (List.mem m e2e_names);
          Alcotest.(check bool) (l.Catalog.l_name ^ " on " ^ w) true (List.mem w workload_names))
        l.Catalog.moves)
    Catalog.per_layer

let test_benchmark_json () =
  let j = Lazy.force benchmark_json in
  Alcotest.(check (list string)) "top-level keys"
    [ "command"; "end_to_end"; "paths"; "per_layer"; "run_seconds"; "workloads" ]
    (keys j);
  Alcotest.(check (list string)) "paths" [ "perfbench" ] (List.map str (list (field "paths" j)));
  Alcotest.(check (list (pair string string))) "workloads"
    (List.map (fun w -> (w.Catalog.w_name, w.Catalog.why)) Catalog.workloads)
    (List.map (fun w -> (str (field "name" w), str (field "why" w))) (list (field "workloads" j)));
  let num j = Option.get (Json.to_float_opt j) in
  Alcotest.(check (list (pair string (pair string (pair string (float 0.0))))))
    "end_to_end"
    (List.map
       (fun m ->
         (m.Catalog.name, (m.Catalog.unit_, (Catalog.better_name m.Catalog.better, m.Catalog.bound))))
       Catalog.end_to_end)
    (List.map
       (fun m ->
         Alcotest.(check (list string)) "metric keys" [ "better"; "bound"; "name"; "unit" ] (keys m);
         (str (field "name" m), (str (field "unit" m), (str (field "better" m), num (field "bound" m)))))
       (list (field "end_to_end" j)));
  Alcotest.(check (list (pair string (pair string string))))
    "per_layer"
    (List.map
       (fun l -> (l.Catalog.l_name, (l.Catalog.l_unit, Catalog.better_name l.Catalog.l_better)))
       Catalog.per_layer)
    (List.map
       (fun m ->
         Alcotest.(check (list string)) "metric keys" [ "better"; "name"; "unit" ] (keys m);
         (str (field "name" m), (str (field "unit" m), str (field "better" m))))
       (list (field "per_layer" j)))

(* The printed result line parses, has exactly the keys correct,
   attempted, failed and metrics, and every metric is a {value, unit}
   pair. *)
let check_result_line ~trace o =
  let ms = Emit.reported ~trace o in
  match Json.parse (Emit.json_line o ms) with
  | Error e -> Alcotest.failf "result line: %s" e
  | Ok j ->
    Alcotest.(check (list string)) "result keys" [ "attempted"; "correct"; "failed"; "metrics" ] (keys j);
    Alcotest.(check bool) "correct" true (field "correct" j = Json.Bool true);
    let expected = if trace then layer_names else e2e_names in
    Alcotest.(check (list string)) "metric names" (List.sort compare expected) (keys (field "metrics" j));
    List.iter
      (fun name ->
        let m = field name (field "metrics" j) in
        Alcotest.(check (list string)) (name ^ " keys") [ "unit"; "value" ] (keys m);
        Alcotest.(check bool) (name ^ " has a unit") true (str (field "unit" m) <> ""))
      expected

let smoke name run () =
  List.iter
    (fun trace ->
      let o, ns = Host.timed (fun () -> run ~trace) in
      Alcotest.(check bool) (name ^ " checks pass") true (Emit.correct o);
      Alcotest.(check int) (name ^ " nothing failed") 0 o.Emit.failed;
      check_result_line ~trace o;
      Alcotest.(check bool)
        (Printf.sprintf "%s smoke run takes seconds (%.1f s)" name (Host.seconds ns))
        true
        (Host.seconds ns < 60.0))
    [ false; true ]

let () =
  Alcotest.run "perfbench"
    [
      ( "catalogue",
        [
          Alcotest.test_case "names and counts" `Quick test_names;
          Alcotest.test_case "every layer moves a metric on a workload" `Quick test_moves;
          Alcotest.test_case "BENCHMARK.json agrees" `Quick test_benchmark_json;
        ] );
      ( "smoke",
        [
          Alcotest.test_case "kv_zipf_read" `Quick
            (smoke "kv_zipf_read" (fun ~trace ->
                 Kv_bench.(run zipf_read smoke ~seed:3 ~seconds:0.0 ~trace)));
          Alcotest.test_case "kv_put_ec" `Quick
            (smoke "kv_put_ec" (fun ~trace ->
                 Kv_bench.(run put_ec smoke ~seed:3 ~seconds:0.0 ~trace)));
          Alcotest.test_case "graph_mira" `Quick
            (smoke "graph_mira" (fun ~trace ->
                 Graph_bench.(run smoke ~seed:3 ~seconds:0.0 ~trace)));
        ] );
    ]
