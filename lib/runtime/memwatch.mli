(** Memory watermarks: graceful degradation under heap pressure.

    A [Gc.alarm]-based monitor compares the major-heap size against
    two thresholds at the end of every major collection.  Crossing the
    {e soft} watermark runs registered shedding hooks (caches register
    their own eviction from above) so memory comes back before the OS
    takes it; crossing the {e hard} watermark flips the level to
    [Hard], which the fallback ladder reads to skip memory-hungry
    rungs with a typed [Degraded("memory", _)] entry.

    Disabled by default — fuel-determinism tests must not depend on
    allocator behaviour.  Armed via [--mem-soft]/[--mem-hard]. *)

type level = Normal | Soft | Hard

val level_name : level -> string

val configure : ?soft_mb:int -> ?hard_mb:int -> unit -> unit
(** Install (or retune) the watermarks, in megabytes of major heap.
    An omitted threshold never trips.  Installs the Gc alarm on first
    call with any threshold present, and takes one immediate
    observation. *)

val disable : unit -> unit
(** Remove the alarm and reset level and thresholds (counters are
    kept). *)

val level : unit -> level
(** Current pressure level (the forced override, when set). *)

val force : level option -> unit
(** Test hook: pin the observed level regardless of actual heap size
    ([None] restores real observation). *)

val on_soft : (unit -> unit) -> unit
(** Register a shedding hook, run once per upward watermark crossing.
    Hook exceptions are swallowed. *)

type stats = {
  major_words : float;
  heap_words : int;
  compactions : int;
  watermark : level;
  soft_trips : int;
  hard_trips : int;
  sheds : int;
}

val stats : unit -> stats
(** Gc counters + watermark state, for [--stats] and server
    [health]. *)
