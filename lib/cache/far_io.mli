(** The far-I/O protocol shared by every cache over far memory.

    A cache unit (a [Section] line or a [Swap_section] page) travels to
    and from the erasure-coded cluster in one way, whichever cache owns
    it: fills are urgent demand reads followed by an urgent drain of
    any reconstruction debt; writebacks write the cluster, post the
    primary write, fan out one detached write per live parity row and
    post the detached survivor read of a degraded write; prefetches are
    batched behind one doorbell when the data plane coalesces.  This
    module owns that protocol, and with it how each step is traced
    (span contexts, fill / late-fill / reconstruct spans, the [serve]
    instant) and charged to the stall ledger.  The caches keep only
    their storage, victim choice, lookup costs and statistics. *)

(** {1 Transfers without a cache unit} *)

val blocking :
  Mira_sim.Net.t -> clock:Mira_sim.Clock.t -> Mira_sim.Net.Request.t ->
  Mira_sim.Net.completion * float
(** Submit [req] urgently, charge its issue CPU to [clock], await its
    completion and wait until it lands: the completion and the stall
    the wait cost. *)

val post_detached :
  Mira_sim.Net.t -> clock:Mira_sim.Clock.t -> Mira_sim.Net.Request.t -> unit
(** Fire-and-forget: submit detached (accounted and fenced, never
    reaped) and charge the issue CPU. *)

val charge_completion :
  Mira_telemetry.Attribution.t -> ?section:string ->
  Mira_sim.Net.completion -> float -> unit
(** Split a completion's measured stall into wire / retry / queueing
    ledger parts ([Attribution.split_stall]) and charge them. *)

(** {1 Cache units} *)

type t
(** One cache's view of far memory: its net, cluster, transport side,
    unit size, ledger section key and trace lane. *)

val create :
  Mira_sim.Net.t -> Mira_sim.Cluster.t -> side:Mira_sim.Net.side ->
  unit_bytes:int -> fetch_bytes:int -> section:string -> lane:string -> t
(** [unit_bytes] is what a writeback and a cluster fill move;
    [fetch_bytes] what a demand or prefetch read carries on the wire
    (smaller under selective transmission).  [section] keys ledger
    charges, [lane] names the cache's trace lane. *)

val set_attribution : t -> Mira_telemetry.Attribution.t -> unit

val read_unit : t -> clock:Mira_sim.Clock.t -> base:int -> dst:Bytes.t -> unit
(** Copy the unit at far address [base] into [dst], then drain the
    reconstruction debt the read accrued (its data node down, decoded
    from k survivors) as an urgent demand read charged to
    [Reconstruct], with a [reconstruct] span on the service lane. *)

val writeback :
  t -> clock:Mira_sim.Clock.t -> base:int -> src:Bytes.t -> sync:bool -> unit
(** Write [src] back as the unit at [base]: the cluster write, the
    primary write (urgent and blocking, charged to [Writeback], when
    [sync]; detached otherwise), one detached write per live parity
    row sized to the scheme's bytes-on-wire, and a detached read for
    the survivor traffic of a degraded write. *)

(** {2 Demand fills} *)

type fill
(** An open fill: its start time and, when traced, its span. *)

val open_fill : t -> clock:Mira_sim.Clock.t -> fill
(** Start a fill now.  Its span is a child of the ambient access, or
    the root of a new trace when the access is untraced. *)

val demand_read :
  t -> clock:Mira_sim.Clock.t -> fill -> addr:int -> Mira_sim.Net.completion
(** Submit the fill's urgent demand read of the unit at [addr] (nested
    under the fill span), charge its issue CPU and await its completion
    — without waiting for it to land.  Install the unit, then
    [await_fill]: installing can itself block on a reconstruction read,
    so it comes before the wait. *)

val await_fill : t -> clock:Mira_sim.Clock.t -> Mira_sim.Net.completion -> unit
(** Wait until the demand read lands and charge the stall. *)

val close_fill :
  t -> clock:Mira_sim.Clock.t -> fill -> Mira_telemetry.Metrics.hist ->
  name:string -> key:string -> arg:int -> float
(** End the fill: observe its latency in the histogram, emit its span
    [name] (argument [key] = [arg]) and the [serve] instant naming the
    node that served it.  Returns the fill's latency. *)

val late_fill :
  t -> clock:Mira_sim.Clock.t -> ready_at:float -> name:string -> float
(** Wait for a resident unit whose transfer is still on the wire (the
    caller checks [ready_at > now] first, keeping the hit path free of
    the call).  Returns the stall; a positive one is charged to
    [Demand_wire] and, when traced, spanned as [name]. *)

(** {2 Prefetch} *)

val prefetch :
  t -> clock:Mira_sim.Clock.t -> resident:(int -> bool) ->
  install:(int -> ready_at:float -> unit) -> int list -> int
(** Prefetch the given unit indices, skipping resident ones and those
    past the end of far memory.  With doorbell coalescing every read
    is submitted, the batch rung once, and each unit installed (unless
    it became resident meanwhile) with its completion time; without,
    each unit posts, awaits and installs in turn.  Returns the number
    of reads posted. *)
