(** The shared contract of a local cache over far memory.

    Both cache flavours — the compiler-configured [Section] and the
    page-granularity [Swap_section] — implement [OPS]: lookup
    (load/store), insertion via prefetch, writeback/flush, discard,
    teardown, and telemetry publication.  [Manager] and [Runtime]
    dispatch through a packed [handle], so nothing above the cache
    layer special-cases the swap section any more: "no section assigned"
    simply routes to the swap handle. *)

module type OPS = sig
  type t

  val load : t -> clock:Mira_sim.Clock.t -> addr:int -> len:int -> int64
  val store : t -> clock:Mira_sim.Clock.t -> addr:int -> len:int -> int64 -> unit

  val load_native : t -> clock:Mira_sim.Clock.t -> addr:int -> len:int -> int64
  (** Compiler-proved-resident access; implementations without a native
      fast path fall back to [load]. *)

  val store_native :
    t -> clock:Mira_sim.Clock.t -> addr:int -> len:int -> int64 -> unit

  val prefetch_range : t -> clock:Mira_sim.Clock.t -> addr:int -> len:int -> unit
  (** Asynchronously insert all lines/pages covering the range. *)

  val evict_hint : t -> clock:Mira_sim.Clock.t -> addr:int -> len:int -> unit
  (** Write back covered dirty data asynchronously and mark it a
      preferred eviction victim. *)

  val flush_range : t -> clock:Mira_sim.Clock.t -> addr:int -> len:int -> unit
  (** Synchronous writeback (without eviction) of covered dirty data. *)

  val discard_range : t -> addr:int -> len:int -> unit
  (** Drop covered data {e without} writing it back. *)

  val flush_all : t -> clock:Mira_sim.Clock.t -> unit
  (** Asynchronously re-issue writebacks for {e all} still-dirty data,
      without evicting anything.  The failover recovery path: after the
      primary far node crashes, every dirty line must reach the new
      primary again. *)

  val drop_all : t -> clock:Mira_sim.Clock.t -> unit
  (** End of lifetime: write back dirty data and empty the cache. *)

  val publish : t -> Mira_telemetry.Metrics.t -> unit
  val reset_stats : t -> unit
  val metadata_bytes : t -> int

  val counters : t -> int * int
  (** (hits, misses-or-faults) snapshot for profiler attribution. *)
end

type handle = Handle : (module OPS with type t = 'a) * 'a -> handle

(* Dispatch helpers so call sites read like method calls. *)

let load (Handle ((module M), s)) ~clock ~addr ~len = M.load s ~clock ~addr ~len

let store (Handle ((module M), s)) ~clock ~addr ~len v =
  M.store s ~clock ~addr ~len v

let load_native (Handle ((module M), s)) ~clock ~addr ~len =
  M.load_native s ~clock ~addr ~len

let store_native (Handle ((module M), s)) ~clock ~addr ~len v =
  M.store_native s ~clock ~addr ~len v

let prefetch_range (Handle ((module M), s)) ~clock ~addr ~len =
  M.prefetch_range s ~clock ~addr ~len

let evict_hint (Handle ((module M), s)) ~clock ~addr ~len =
  M.evict_hint s ~clock ~addr ~len

let flush_range (Handle ((module M), s)) ~clock ~addr ~len =
  M.flush_range s ~clock ~addr ~len

let discard_range (Handle ((module M), s)) ~addr ~len =
  M.discard_range s ~addr ~len

let flush_all (Handle ((module M), s)) ~clock = M.flush_all s ~clock
let drop_all (Handle ((module M), s)) ~clock = M.drop_all s ~clock
let publish (Handle ((module M), s)) reg = M.publish s reg
let reset_stats (Handle ((module M), s)) = M.reset_stats s
let metadata_bytes (Handle ((module M), s)) = M.metadata_bytes s
let counters (Handle ((module M), s)) = M.counters s
