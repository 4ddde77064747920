(* A workload run's result and how it is printed: one human-readable
   line per metric (name, value, unit, sample count) and per check,
   then the machine-readable result as the last line of stdout. *)

type metric = { name : string; value : float; unit_ : string; samples : int }

type check = { c_name : string; ok : bool; detail : string }

type outcome = {
  e2e : metric list;
  layers : metric list;  (** empty unless the run was traced *)
  spans : Host.breakdown list;  (** traced runs only *)
  attempted : int;
  failed : int;  (** operations a failed check covers *)
  checks : check list;
}

let check c_name ok detail = { c_name; ok; detail }

(** One check per name, ok when every instance is; details of the
    failed instances only. *)
let group checks =
  let names =
    List.fold_left
      (fun acc c -> if List.mem c.c_name acc then acc else c.c_name :: acc)
      [] checks
    |> List.rev
  in
  List.map
    (fun c_name ->
      let bad = List.filter (fun c -> c.c_name = c_name && not c.ok) checks in
      {
        c_name;
        ok = bad = [];
        detail = String.concat "; " (List.filter (( <> ) "") (List.map (fun c -> c.detail) bad));
      })
    names

(** Operations covered by a list of checks that failed: [ops] when any
    of them failed. *)
let failed_ops ~ops checks = if List.for_all (fun c -> c.ok) checks then 0 else ops

let correct o = List.for_all (fun c -> c.ok) o.checks

(* Attach units from the catalogue; a name the catalogue does not list
   is a benchmark bug. *)
let e2e_metric name ~samples value =
  match List.find_opt (fun m -> m.Catalog.name = name) Catalog.end_to_end with
  | Some m -> { name; value; unit_ = m.Catalog.unit_; samples }
  | None -> invalid_arg ("Emit.e2e_metric: unknown metric " ^ name)

let layer_metric name ~samples value =
  match List.find_opt (fun l -> l.Catalog.l_name = name) Catalog.per_layer with
  | Some l -> { name; value; unit_ = l.Catalog.l_unit; samples }
  | None -> invalid_arg ("Emit.layer_metric: unknown metric " ^ name)

(** The metrics the run reports: per-layer when traced, else
    end-to-end.  Checks that exactly the catalogue's names are present
    with finite values; raises [Failure] otherwise. *)
let reported ~trace o =
  let ms, expected =
    if trace then (o.layers, List.map (fun l -> l.Catalog.l_name) Catalog.per_layer)
    else (o.e2e, List.map (fun m -> m.Catalog.name) Catalog.end_to_end)
  in
  let names = List.map (fun m -> m.name) ms in
  if List.sort compare names <> List.sort compare expected then
    failwith
      (Printf.sprintf "metric set mismatch: missing [%s], unexpected [%s]"
         (String.concat " " (List.filter (fun n -> not (List.mem n names)) expected))
         (String.concat " " (List.filter (fun n -> not (List.mem n expected)) names)));
  List.iter
    (fun m ->
      if not (Float.is_finite m.value) then
        failwith (Printf.sprintf "metric %s is not finite" m.name))
    ms;
  (* catalogue order *)
  List.map (fun n -> List.find (fun m -> m.name = n) ms) expected

let json_line o ms =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    (correct o) o.attempted o.failed;
  List.iteri
    (fun i m ->
      Printf.bprintf buf "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}"
        (if i = 0 then "" else ", ")
        m.name m.value m.unit_)
    ms;
  Buffer.add_string buf "}}";
  Buffer.contents buf

let print ~trace o =
  let ms = reported ~trace o in
  List.iter
    (fun c ->
      Printf.printf "check %-32s %s%s\n" c.c_name
        (if c.ok then "ok" else "FAILED")
        (if c.detail = "" then "" else "  " ^ c.detail))
    o.checks;
  List.iter Host.print_breakdown o.spans;
  List.iter
    (fun m ->
      Printf.printf "metric %-28s %16.6f %-6s n=%d\n" m.name m.value m.unit_ m.samples)
    ms;
  print_endline (json_line o ms)
