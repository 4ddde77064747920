module Net = Mira_sim.Net
module Clock = Mira_sim.Clock
module Cluster = Mira_sim.Cluster
module Attribution = Mira_telemetry.Attribution
module Trace = Mira_telemetry.Trace
module Json = Mira_telemetry.Json

(* --- transfers without a cache unit ---------------------------------------- *)

(* Causal context for a child request of the access currently being
   executed.  [flow] children (detached writebacks, prefetches) link
   with flow arrows only; synchronous children nest under the ambient
   span. *)
let child_ctx ~flow =
  if Trace.enabled () then
    match Trace.current_ctx () with
    | Some c -> Some { c with Trace.sc_flow = flow }
    | None -> None
  else None

(* Demand misses and blocking writebacks take the fast synchronous
   path: an urgent submission followed by a blocking await.  A
   [Timed_out] completion (faults enabled, retries exhausted) is
   returned like any other: [done_at] already charges every retry and
   the final timeout, so the run degrades instead of hanging. *)
let urgent net ~clock req =
  let now = Clock.now clock in
  let sq = Net.submit net ~now ~urgent:true req in
  Clock.advance clock sq.Net.issue_cpu_ns;
  Net.await net ~now ~id:sq.Net.id

let blocking net ~clock req =
  let c = urgent net ~clock req in
  let stall =
    Clock.wait_event clock ~ev:(Clock.Net_completion c.Net.id) c.Net.done_at
  in
  (c, stall)

let post_detached net ~clock req =
  let sq = Net.submit net ~now:(Clock.now clock) ~detached:true req in
  Clock.advance clock sq.Net.issue_cpu_ns

let charge_completion a ?section (c : Net.completion) stall =
  Attribution.charge_parts a ?section ~holders:c.Net.holders
    (Attribution.split_stall ~stall ~wire_ns:c.Net.wire_ns
       ~queue_ns:c.Net.queue_ns ~retry_ns:c.Net.retry_ns)

(* --- cache units ------------------------------------------------------------ *)

type t = {
  net : Net.t;
  far : Cluster.t;
  side : Net.side;
  unit_bytes : int;
  fetch_bytes : int;
  section : string;
  lane : string;
  mutable attribution : Attribution.t option;
}

let create net far ~side ~unit_bytes ~fetch_bytes ~section ~lane =
  { net; far; side; unit_bytes; fetch_bytes; section; lane; attribution = None }

let set_attribution t a = t.attribution <- Some a

let charge t cause stall =
  match t.attribution with
  | None -> ()
  | Some a -> Attribution.charge a ~section:t.section cause stall

(* A fill that had to erasure-decode (its data node down, group within
   quorum) read k survivor chunk ranges instead of one: model the
   extra (k-1)*c bytes as an urgent demand read and charge the wait to
   the [Reconstruct] attribution cause. *)
let drain_reconstruction t ~clock =
  let rb = Cluster.take_reconstruction t.far in
  if rb > 0 then begin
    let now = Clock.now clock in
    let _, stall =
      blocking t.net ~clock
        (Net.Request.read ~node:(Cluster.serving_node t.far)
           ?ctx:(child_ctx ~flow:false) ~side:t.side ~purpose:Net.Demand rb)
    in
    charge t Attribution.Reconstruct stall;
    if Trace.enabled () then
      Trace.complete ~name:"reconstruct" ~cat:"cluster"
        ~lane:(Cluster.service_lane t.far) ~ts_ns:now
        ~dur_ns:(Clock.now clock -. now)
        ~args:[ ("bytes", Json.Int rb) ]
        ()
  end

let read_unit t ~clock ~base ~dst =
  Cluster.read t.far ~addr:base ~len:t.unit_bytes ~dst ~dst_off:0;
  drain_reconstruction t ~clock

(* [sync] posts the primary write urgently and blocks on it; otherwise
   it is fire-and-forget.  The redundancy fan-out is asynchronous even
   for sync flushes, and mergeable with the primary under doorbell
   batching: one detached write per live parity row, sized to the
   scheme's true bytes-on-wire for this unit (a mirror pays a full copy
   per replica; EC pays the touched chunk union per row).  If the data
   chunk's node was down, the cluster write decoded the old contents
   from survivors; that read traffic rides detached too. *)
let writeback t ~clock ~base ~src ~sync =
  Cluster.write t.far ~addr:base ~len:t.unit_bytes ~src ~src_off:0;
  let node = Cluster.node_of_addr t.far ~addr:base in
  let req ~flow =
    Net.Request.write ~node ?ctx:(child_ctx ~flow) ~side:t.side
      ~purpose:Net.Writeback t.unit_bytes
  in
  if sync then begin
    let _, stall = blocking t.net ~clock (req ~flow:false) in
    charge t Attribution.Writeback stall
  end
  else post_detached t.net ~clock (req ~flow:true);
  List.iter
    (fun (rnode, bytes) ->
      post_detached t.net ~clock
        (Net.Request.write ~node:rnode ?ctx:(child_ctx ~flow:true)
           ~side:t.side ~purpose:Net.Writeback bytes))
    (Cluster.replica_payloads t.far ~addr:base ~len:t.unit_bytes);
  let rb = Cluster.take_reconstruction t.far in
  if rb > 0 then
    post_detached t.net ~clock
      (Net.Request.read ~node:(Cluster.serving_node t.far)
         ?ctx:(child_ctx ~flow:true) ~side:t.side ~purpose:Net.Demand rb)

(* --- demand fills ------------------------------------------------------------ *)

type fill = {
  start : float;
  trace : int;  (* 0 when untraced *)
  parent : int;
  span : int;
  ctx : Trace.span_ctx option;  (* carried by the demand read *)
}

let open_fill t ~clock =
  let start = Clock.now clock in
  if Trace.enabled () then begin
    let trace, parent, site =
      match Trace.current_ctx () with
      | Some c -> (c.Trace.sc_trace, c.Trace.sc_span, c.Trace.sc_site)
      | None -> (Trace.new_trace (), 0, -1)
    in
    let span = Trace.new_span () in
    let ctx =
      { Trace.sc_trace = trace; sc_span = span; sc_site = site;
        sc_lane = t.lane; sc_flow = false }
    in
    { start; trace; parent; span; ctx = Some ctx }
  end
  else { start; trace = 0; parent = 0; span = 0; ctx = None }

let demand_read t ~clock f ~addr =
  urgent t.net ~clock
    (Net.Request.read ~node:(Cluster.node_of_addr t.far ~addr) ?ctx:f.ctx
       ~side:t.side ~purpose:Net.Demand t.fetch_bytes)

let await_fill t ~clock (c : Net.completion) =
  let stall = Clock.wait_event clock ~ev:Clock.Cache_fill c.Net.done_at in
  match t.attribution with
  | None -> ()
  | Some a -> charge_completion a ~section:t.section c stall

let close_fill t ~clock f hist ~name ~key ~arg =
  let ns = Clock.now clock -. f.start in
  Mira_telemetry.Metrics.hist_observe ~trace:f.trace hist ns;
  (match f.ctx with
  | None -> ()
  | Some _ ->
    let { start; trace; span; parent; _ } = f in
    Trace.begin_span ~name ~cat:"cache" ~lane:t.lane ~ts_ns:start ~trace ~span
      ~parent ~args:[ (key, Json.Int arg) ] ();
    Trace.end_span ~name ~cat:"cache" ~lane:t.lane ~ts_ns:(start +. ns) ~trace
      ~span ();
    (* Which physical node served the fill (changes at failover). *)
    Trace.instant ~name:"serve" ~cat:"cluster"
      ~lane:(Cluster.service_lane t.far) ~ts_ns:(start +. ns)
      ~args:[ ("trace", Json.Int trace); ("span", Json.Int span) ]
      ());
  ns

let late_fill t ~clock ~ready_at ~name =
  let stall = Clock.wait_event clock ~ev:Clock.Cache_fill ready_at in
  if stall > 0.0 then begin
    (* A late prefetch is still on the wire. *)
    charge t Attribution.Demand_wire stall;
    if Trace.enabled () then
      match Trace.current_ctx () with
      | Some ctx ->
        let span = Trace.new_span () in
        let now = Clock.now clock in
        Trace.begin_span ~name ~cat:"cache" ~lane:t.lane ~ts_ns:(now -. stall)
          ~trace:ctx.Trace.sc_trace ~span ~parent:ctx.Trace.sc_span ();
        Trace.end_span ~name ~cat:"cache" ~lane:t.lane ~ts_ns:now
          ~trace:ctx.Trace.sc_trace ~span ()
      | None -> ()
  end;
  stall

(* --- prefetch ---------------------------------------------------------------- *)

(* Loop preambles may over-prefetch near object ends, so units past
   the far address space are skipped. *)
let wanted t ~resident u =
  (u + 1) * t.unit_bytes <= Cluster.capacity t.far && not (resident u)

let submit_prefetch t ~clock ctx u =
  let sq =
    Net.submit t.net ~now:(Clock.now clock)
      (Net.Request.read
         ~node:(Cluster.node_of_addr t.far ~addr:(u * t.unit_bytes))
         ?ctx ~side:t.side ~purpose:Net.Prefetch t.fetch_bytes)
  in
  Clock.advance clock sq.Net.issue_cpu_ns;
  sq.Net.id

(* Per-unit posting, identical in timing to the synchronous model:
   each unit pays its own doorbell and round trip. *)
let rec prefetch_each t ~clock ~ctx ~resident ~install n = function
  | [] -> n
  | u :: rest ->
    if wanted t ~resident u then begin
      let now = Clock.now clock in
      let id = submit_prefetch t ~clock ctx u in
      let c = Net.await t.net ~now ~id in
      install u ~ready_at:c.Net.done_at;
      prefetch_each t ~clock ~ctx ~resident ~install (n + 1) rest
    end
    else prefetch_each t ~clock ~ctx ~resident ~install n rest

let rec submit_batch t ~clock ~ctx ~resident acc = function
  | [] -> acc
  | u :: rest ->
    let acc =
      if wanted t ~resident u then (u, submit_prefetch t ~clock ctx u) :: acc
      else acc
    in
    submit_batch t ~clock ~ctx ~resident acc rest

let prefetch t ~clock ~resident ~install units =
  (* Prefetches are asynchronous with respect to the access that
     triggered them: flow-linked, never nested. *)
  let ctx = child_ctx ~flow:true in
  if not (Net.dataplane t.net).Net.coalesce then
    prefetch_each t ~clock ~ctx ~resident ~install 0 units
  else begin
    (* Batched doorbell: submit every wanted unit, ring once, then
       install each with the completion time of the (single,
       coalesced) transfer it rode on. *)
    let posted = submit_batch t ~clock ~ctx ~resident [] units in
    Net.ring t.net ~now:(Clock.now clock);
    List.iter
      (fun (u, id) ->
        let c = Net.await t.net ~now:(Clock.now clock) ~id in
        if not (resident u) then install u ~ready_at:c.Net.done_at)
      (List.rev posted);
    List.length posted
  end
