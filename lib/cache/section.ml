type structure = Direct | Set_assoc of int | Full_assoc

type config = {
  sec_id : int;
  sec_name : string;
  line : int;
  size : int;
  structure : structure;
  side : Mira_sim.Net.side;
  payload : int option;
  no_meta : bool;
  write_no_fetch : bool;
  read_discard : bool;
}

let config_default ~sec_id ~name ~line ~size =
  {
    sec_id;
    sec_name = name;
    line;
    size;
    structure = Full_assoc;
    side = Mira_sim.Net.One_sided;
    payload = None;
    no_meta = false;
    write_no_fetch = false;
    read_discard = false;
  }

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable late_prefetch : int;
  mutable evictions : int;
  mutable hinted_evictions : int;
  mutable writebacks : int;
  mutable hit_ns : float;
  mutable miss_ns : float;
  mutable stall_ns : float;
  mutable bytes_fetched : int;
  lat_fetch : Mira_telemetry.Metrics.hist;
}

let fresh_stats () =
  {
    hits = 0;
    misses = 0;
    late_prefetch = 0;
    evictions = 0;
    hinted_evictions = 0;
    writebacks = 0;
    hit_ns = 0.0;
    miss_ns = 0.0;
    stall_ns = 0.0;
    bytes_fetched = 0;
    lat_fetch = Mira_telemetry.Metrics.hist_create ();
  }

type line_state = {
  mutable tag : int;  (* line index in far address space; -1 = empty *)
  mutable dirty : bool;
  mutable ready_at : float;
  mutable evictable : bool;
  mutable pinned : bool;
  mutable refbit : bool;
  mutable last_use : float;
  data : Bytes.t;
}

type t = {
  cfg : config;
  net : Mira_sim.Net.t;
  io : Far_io.t;
  lines : line_state array;
  table : (int, int) Hashtbl.t;  (* full-assoc: tag -> slot *)
  mutable free_slots : int list;  (* full-assoc only *)
  mutable hand : int;  (* CLOCK sweep position, full-assoc *)
  mutable evict_hints : int list;  (* slots hinted evictable, full-assoc *)
  mutable used : int;
  stats : stats;
}

let create net far cfg =
  assert (cfg.line >= 8 && cfg.line mod 8 = 0);
  assert (cfg.size >= cfg.line);
  let nslots =
    match cfg.structure with
    | Direct | Full_assoc -> max 1 (cfg.size / cfg.line)
    | Set_assoc k ->
      assert (k >= 1);
      let slots = max k (cfg.size / cfg.line) in
      slots / k * k
  in
  let fresh_line () =
    {
      tag = -1;
      dirty = false;
      ready_at = 0.0;
      evictable = false;
      pinned = false;
      refbit = false;
      last_use = 0.0;
      data = Bytes.make cfg.line '\000';
    }
  in
  {
    cfg;
    net;
    io =
      Far_io.create net far ~side:cfg.side ~unit_bytes:cfg.line
        ~fetch_bytes:(Option.value cfg.payload ~default:cfg.line)
        ~section:cfg.sec_name ~lane:("section:" ^ cfg.sec_name);
    lines = Array.init nslots (fun _ -> fresh_line ());
    table = Hashtbl.create (max 16 nslots);
    free_slots = List.init nslots (fun i -> i);
    hand = 0;
    evict_hints = [];
    used = 0;
    stats = fresh_stats ();
  }

let config t = t.cfg
let stats t = t.stats
let set_attribution t a = Far_io.set_attribution t.io a

let reset_stats t =
  let d = t.stats in
  d.hits <- 0;
  d.misses <- 0;
  d.late_prefetch <- 0;
  d.evictions <- 0;
  d.hinted_evictions <- 0;
  d.writebacks <- 0;
  d.hit_ns <- 0.0;
  d.miss_ns <- 0.0;
  d.stall_ns <- 0.0;
  d.bytes_fetched <- 0;
  Mira_telemetry.Metrics.hist_reset d.lat_fetch

let publish t reg =
  let m = Mira_telemetry.Metrics.set_counter reg in
  let g = Mira_telemetry.Metrics.set_gauge reg in
  let s = t.stats in
  let p name = Printf.sprintf "section.%s.%s" t.cfg.sec_name name in
  m (p "hits") s.hits;
  m (p "misses") s.misses;
  m (p "late_prefetch") s.late_prefetch;
  m (p "evictions") s.evictions;
  m (p "hinted_evictions") s.hinted_evictions;
  m (p "writebacks") s.writebacks;
  m (p "bytes_fetched") s.bytes_fetched;
  g (p "hit_ns") s.hit_ns;
  g (p "miss_ns") s.miss_ns;
  g (p "stall_ns") s.stall_ns;
  Mira_telemetry.Metrics.set_hist reg (p "fetch_latency") s.lat_fetch

let lines_total t = Array.length t.lines
let lines_used t = t.used

(* Per-line runtime metadata: tag + flags + ready time + LRU stamp + a
   table entry for associative structures.  The paper's point (§4.4) is
   that compiler-controlled sections need none of it. *)
let metadata_bytes t =
  if t.cfg.no_meta then 0
  else begin
    let per_line =
      match t.cfg.structure with
      | Direct -> 24
      | Set_assoc _ -> 32
      | Full_assoc -> 48
    in
    per_line * Array.length t.lines
  end

let params t = Mira_sim.Net.params t.net

let lookup_cost t =
  let p = params t in
  match t.cfg.structure with
  | Direct -> p.Mira_sim.Params.hit_direct_ns
  | Set_assoc _ -> p.Mira_sim.Params.hit_set_ns
  | Full_assoc -> p.Mira_sim.Params.hit_full_ns

let line_of_addr t addr = addr / t.cfg.line

(* --- slot lookup ------------------------------------------------------- *)

let find_slot t tag =
  match t.cfg.structure with
  | Direct ->
    let slot = tag mod Array.length t.lines in
    if t.lines.(slot).tag = tag then Some slot else None
  | Set_assoc k ->
    let nsets = Array.length t.lines / k in
    let set = tag mod nsets in
    let rec scan i =
      if i >= k then None
      else begin
        let slot = (set * k) + i in
        if t.lines.(slot).tag = tag then Some slot else scan (i + 1)
      end
    in
    scan 0
  | Full_assoc -> Hashtbl.find_opt t.table tag

(* --- victim selection --------------------------------------------------- *)

(* read_discard is a cost hint for clean lines; dirty data must always
   reach the far store or it would be lost. *)
let writeback_victim t ~clock line =
  if line.dirty then begin
    line.dirty <- false;
    Far_io.writeback t.io ~clock ~base:(line.tag * t.cfg.line) ~src:line.data
      ~sync:false;
    t.stats.writebacks <- t.stats.writebacks + 1
  end

let release_slot t ~clock slot =
  let line = t.lines.(slot) in
  if line.tag >= 0 then begin
    writeback_victim t ~clock line;
    (match t.cfg.structure with
    | Full_assoc -> Hashtbl.remove t.table line.tag
    | Direct | Set_assoc _ -> ());
    if line.evictable then t.stats.hinted_evictions <- t.stats.hinted_evictions + 1;
    t.stats.evictions <- t.stats.evictions + 1;
    line.tag <- -1;
    line.evictable <- false;
    line.pinned <- false;
    line.refbit <- false;
    t.used <- t.used - 1
  end

let pick_victim_full t =
  (* Hinted-evictable slots first, then CLOCK over the rest. *)
  let rec from_hints = function
    | [] ->
      t.evict_hints <- [];
      None
    | slot :: rest ->
      let line = t.lines.(slot) in
      if line.tag >= 0 && line.evictable && not line.pinned then begin
        t.evict_hints <- rest;
        Some slot
      end
      else from_hints rest
  in
  match from_hints t.evict_hints with
  | Some slot -> slot
  | None ->
    let n = Array.length t.lines in
    let rec sweep budget =
      let slot = t.hand in
      t.hand <- (t.hand + 1) mod n;
      let line = t.lines.(slot) in
      if budget = 0 then slot
      else if line.pinned then sweep (budget - 1)
      else if line.refbit then begin
        line.refbit <- false;
        sweep (budget - 1)
      end
      else slot
    in
    sweep (2 * n)

let pick_victim_set t tag k =
  let nsets = Array.length t.lines / k in
  let set = tag mod nsets in
  let best = ref (set * k) in
  let best_score = ref infinity in
  for i = 0 to k - 1 do
    let slot = (set * k) + i in
    let line = t.lines.(slot) in
    let score =
      if line.tag < 0 then neg_infinity
      else if line.pinned then infinity
      else if line.evictable then -1.0
      else line.last_use
    in
    if score < !best_score then begin
      best := slot;
      best_score := score
    end
  done;
  !best

let allocate_slot t ~clock tag =
  match t.cfg.structure with
  | Direct ->
    let slot = tag mod Array.length t.lines in
    release_slot t ~clock slot;
    slot
  | Set_assoc k ->
    let slot = pick_victim_set t tag k in
    release_slot t ~clock slot;
    slot
  | Full_assoc ->
    (match t.free_slots with
    | slot :: rest ->
      t.free_slots <- rest;
      slot
    | [] ->
      let slot = pick_victim_full t in
      release_slot t ~clock slot;
      slot)

let install t ~clock ~tag ~ready_at =
  let slot = allocate_slot t ~clock tag in
  let line = t.lines.(slot) in
  Far_io.read_unit t.io ~clock ~base:(tag * t.cfg.line) ~dst:line.data;
  line.tag <- tag;
  line.dirty <- false;
  line.ready_at <- ready_at;
  line.evictable <- false;
  line.pinned <- false;
  line.refbit <- true;
  line.last_use <- Mira_sim.Clock.now clock;
  (match t.cfg.structure with
  | Full_assoc -> Hashtbl.replace t.table tag slot
  | Direct | Set_assoc _ -> ());
  t.used <- t.used + 1;
  slot

(* --- access paths ------------------------------------------------------- *)

let payload_bytes t = match t.cfg.payload with Some b -> b | None -> t.cfg.line

let touch t ~clock slot =
  let line = t.lines.(slot) in
  line.refbit <- true;
  line.last_use <- Mira_sim.Clock.now clock;
  (* Re-using a line cancels a pending eviction hint. *)
  line.evictable <- false

(* The hit path: only a line still on the wire pays for the call. *)
let wait_ready t ~clock line =
  if line.ready_at > Mira_sim.Clock.now clock then begin
    let stall =
      Far_io.late_fill t.io ~clock ~ready_at:line.ready_at ~name:"late-prefetch"
    in
    t.stats.late_prefetch <- t.stats.late_prefetch + 1;
    t.stats.stall_ns <- t.stats.stall_ns +. stall
  end

(* Ensure the line covering [addr] is resident; returns its slot.
   [for_write_no_fetch] skips the network fetch on a miss. *)
let ensure t ~clock ~addr ~for_write =
  let p = params t in
  let tag = line_of_addr t addr in
  match find_slot t tag with
  | Some slot ->
    t.stats.hits <- t.stats.hits + 1;
    let cost = if t.cfg.no_meta then 0.0 else lookup_cost t in
    Mira_sim.Clock.advance clock cost;
    t.stats.hit_ns <- t.stats.hit_ns +. cost;
    wait_ready t ~clock t.lines.(slot);
    touch t ~clock slot;
    slot
  | None ->
    t.stats.misses <- t.stats.misses + 1;
    (* The fill span: child of the ambient deref (or a root of its own
       trace when the access above is not instrumented).  The demand
       request carries its context so its net member span nests under
       the fill. *)
    let fill = Far_io.open_fill t.io ~clock in
    let cost = if t.cfg.no_meta then 0.0 else lookup_cost t in
    Mira_sim.Clock.advance clock cost;
    let slot =
      if for_write && t.cfg.write_no_fetch then begin
        (* No fetch: the store covers the whole line (or the compiler
           proved full coverage before any read); local bookkeeping only. *)
        Mira_sim.Clock.advance clock p.Mira_sim.Params.evict_check_ns;
        install t ~clock ~tag ~ready_at:(Mira_sim.Clock.now clock)
      end
      else begin
        let c = Far_io.demand_read t.io ~clock fill ~addr:(tag * t.cfg.line) in
        let slot = install t ~clock ~tag ~ready_at:c.Mira_sim.Net.done_at in
        Far_io.await_fill t.io ~clock c;
        t.stats.bytes_fetched <- t.stats.bytes_fetched + payload_bytes t;
        slot
      end
    in
    let miss_ns =
      Far_io.close_fill t.io ~clock fill t.stats.lat_fetch ~name:"demand-fetch"
        ~key:"addr" ~arg:addr
    in
    t.stats.miss_ns <- t.stats.miss_ns +. miss_ns;
    touch t ~clock slot;
    slot

let check_span t ~addr ~len =
  assert (len > 0 && len <= 8);
  assert (addr / t.cfg.line = (addr + len - 1) / t.cfg.line)

(* Scalar access straight into the line buffer — no staging blit.  The
   line itself is filled/written back by a single boundary copy against
   the cluster store (install / writeback). *)
let read_slot t slot ~addr ~len =
  let line = t.lines.(slot) in
  let off = addr mod t.cfg.line in
  Mira_util.Bytes_le.get line.data ~off ~len

let write_slot t slot ~addr ~len v =
  let line = t.lines.(slot) in
  let off = addr mod t.cfg.line in
  Mira_util.Bytes_le.set line.data ~off ~len v;
  line.dirty <- true

let load t ~clock ~addr ~len =
  check_span t ~addr ~len;
  let slot = ensure t ~clock ~addr ~for_write:false in
  Mira_sim.Clock.advance clock (params t).Mira_sim.Params.native_mem_ns;
  read_slot t slot ~addr ~len

let store t ~clock ~addr ~len v =
  check_span t ~addr ~len;
  let slot = ensure t ~clock ~addr ~for_write:true in
  Mira_sim.Clock.advance clock (params t).Mira_sim.Params.native_mem_ns;
  write_slot t slot ~addr ~len v

(* Compiler-proved resident: native cost.  If the proof fails at run
   time (e.g. an over-eager pass), fall back to the full path so data
   stays correct — the only penalty is that the access is charged like
   a normal one. *)
let load_native t ~clock ~addr ~len =
  check_span t ~addr ~len;
  let tag = line_of_addr t addr in
  match find_slot t tag with
  | Some slot ->
    wait_ready t ~clock t.lines.(slot);
    Mira_sim.Clock.advance clock (params t).Mira_sim.Params.native_mem_ns;
    t.stats.hits <- t.stats.hits + 1;
    read_slot t slot ~addr ~len
  | None -> load t ~clock ~addr ~len

let store_native t ~clock ~addr ~len v =
  check_span t ~addr ~len;
  let tag = line_of_addr t addr in
  match find_slot t tag with
  | Some slot ->
    wait_ready t ~clock t.lines.(slot);
    Mira_sim.Clock.advance clock (params t).Mira_sim.Params.native_mem_ns;
    t.stats.hits <- t.stats.hits + 1;
    write_slot t slot ~addr ~len v
  | None -> store t ~clock ~addr ~len v

let iter_tags t ~addr ~len fn =
  let first = line_of_addr t addr in
  let last = line_of_addr t (addr + len - 1) in
  for tag = first to last do
    fn tag
  done

let rec tags_from tag last = if tag > last then [] else tag :: tags_from (tag + 1) last

let prefetch t ~clock ~addr ~len =
  let posted =
    Far_io.prefetch t.io ~clock
      ~resident:(fun tag -> find_slot t tag <> None)
      ~install:(fun tag ~ready_at -> ignore (install t ~clock ~tag ~ready_at))
      (tags_from (line_of_addr t addr) (line_of_addr t (addr + len - 1)))
  in
  t.stats.bytes_fetched <- t.stats.bytes_fetched + (posted * payload_bytes t)

(* [dirty] is cleared before the writeback: [Far_io.writeback] copies
   the unit into the cluster before its first clock move, and a store
   another tenant makes while this one is parked in that move must
   leave the line dirty again, or it is never written back. *)
let flush_slot t ~clock slot ~sync =
  let line = t.lines.(slot) in
  if line.dirty then begin
    line.dirty <- false;
    Far_io.writeback t.io ~clock ~base:(line.tag * t.cfg.line) ~src:line.data
      ~sync;
    t.stats.writebacks <- t.stats.writebacks + 1
  end

let flush_evict t ~clock ~addr ~len =
  iter_tags t ~addr ~len (fun tag ->
      match find_slot t tag with
      | None -> ()
      | Some slot ->
        Mira_sim.Clock.advance clock (params t).Mira_sim.Params.evict_check_ns;
        flush_slot t ~clock slot ~sync:false;
        let line = t.lines.(slot) in
        line.evictable <- true;
        (match t.cfg.structure with
        | Full_assoc -> t.evict_hints <- slot :: t.evict_hints
        | Direct | Set_assoc _ -> ()))

let mark_dont_evict t ~addr ~len ~pinned =
  iter_tags t ~addr ~len (fun tag ->
      match find_slot t tag with
      | None -> ()
      | Some slot -> t.lines.(slot).pinned <- pinned)

let flush_range t ~clock ~addr ~len =
  iter_tags t ~addr ~len (fun tag ->
      match find_slot t tag with
      | None -> ()
      | Some slot -> flush_slot t ~clock slot ~sync:true)

(* Failover recovery: every still-dirty line is re-issued to the (new)
   primary asynchronously, without evicting anything.  Clean lines need
   nothing — their last writeback was replicated before the crash. *)
let flush_all t ~clock =
  Array.iteri
    (fun slot line ->
      if line.tag >= 0 && line.dirty then flush_slot t ~clock slot ~sync:false)
    t.lines

let drop_all t ~clock =
  Array.iteri
    (fun slot line -> if line.tag >= 0 then release_slot t ~clock slot)
    t.lines;
  Hashtbl.reset t.table;
  t.free_slots <- List.init (Array.length t.lines) (fun i -> i);
  t.evict_hints <- [];
  t.hand <- 0

let discard_range t ~addr ~len =
  iter_tags t ~addr ~len (fun tag ->
      match find_slot t tag with
      | None -> ()
      | Some slot ->
        let line = t.lines.(slot) in
        line.dirty <- false;
        (* Not an eviction in the statistical sense: bypass release_slot
           counters by clearing in place. *)
        (match t.cfg.structure with
        | Full_assoc ->
          Hashtbl.remove t.table line.tag;
          t.free_slots <- slot :: t.free_slots
        | Direct | Set_assoc _ -> ());
        line.tag <- -1;
        line.evictable <- false;
        line.pinned <- false;
        line.refbit <- false;
        t.used <- t.used - 1)

let resident t ~addr = find_slot t (line_of_addr t addr) <> None

(* --- shared cache contract ---------------------------------------------- *)

module Ops : Cache_section.OPS with type t = t = struct
  type nonrec t = t

  let load = load
  let store = store
  let load_native = load_native
  let store_native = store_native
  let prefetch_range = prefetch
  let evict_hint = flush_evict
  let flush_range = flush_range
  let discard_range = discard_range
  let flush_all = flush_all
  let drop_all = drop_all
  let publish = publish
  let reset_stats = reset_stats
  let metadata_bytes = metadata_bytes
  let counters t = (t.stats.hits, t.stats.misses)
end

let handle t = Cache_section.Handle ((module Ops), t)
