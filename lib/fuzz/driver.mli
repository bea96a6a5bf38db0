(** The fuzzing loop: generate, run all oracles, shrink and persist on
    divergence.  Everything is a pure function of [seed] (per-iteration
    seed is [seed + i]), so any failure replays with
    [mvfuzz --seed N --replay]. *)

type report = {
  rp_seed : int;  (** the per-iteration seed that diverged *)
  rp_original : Oracle.divergence;
  rp_shrunk : Shrink.result;
  rp_entry : Corpus.entry;
  rp_path : string option;  (** corpus file, when a directory was given *)
  rp_flight : string option;
      (** [mv-flight/1] postmortem dump (oracle verdict + shrunk
          reproducer), when [MV_SMP_ARTIFACT_DIR] is set *)
}

type summary = {
  s_tested : int;
  s_reports : report list;  (** empty = clean run *)
}

val schedule_for : Gen.case -> int -> Schedule.t
(** The schedule the fuzzing loop pairs with [Gen.case seed] — exposed so
    tests replaying a seed reconstruct the exact same run. *)

(** The single-domain fuzzing loop: case [i] of the campaign runs under
    seed [seed + i], in order.  [keep_going] collects every divergence
    instead of stopping at the first; [corpus_dir] persists each shrunk
    reproducer.  Progress and findings go through [log]. *)
val run :
  ?cfg:Gen.cfg ->
  ?chaos:Oracle.chaos ->
  ?only:string list ->
  ?corpus_dir:string ->
  ?keep_going:bool ->
  ?shrink_budget:int ->
  ?log:(string -> unit) ->
  seed:int ->
  iters:int ->
  unit ->
  summary

(** {!run} fanned out over [domains] OCaml domains.  The case-seed
    schedule is unchanged — case [i] still runs under [seed + i] — and
    domain [d] owns the stripe [{d, d+domains, ...}] of the iteration
    space (campaign seed → domain stripe → case seed), so the tested seed
    set is exactly the single-domain one and, with [keep_going], the
    merged corpus is byte-for-byte what a single-domain run writes.
    [domains = 1] (the default CLI mode) is literally {!run}: same code
    path, same corpora, same log stream.  Reports are merged in seed
    order; [log] may be called from any domain (serialized internally).
    An exception in any worker stops the other stripes and is re-raised
    once every domain has joined (the lowest domain's first), just as
    {!run} lets it through. *)
val run_parallel :
  ?cfg:Gen.cfg ->
  ?chaos:Oracle.chaos ->
  ?only:string list ->
  ?corpus_dir:string ->
  ?keep_going:bool ->
  ?shrink_budget:int ->
  ?log:(string -> unit) ->
  domains:int ->
  seed:int ->
  iters:int ->
  unit ->
  summary

(** Re-run a single seed verbosely: prints the generated program, the
    schedule, and each oracle verdict through [log]. *)
val replay :
  ?cfg:Gen.cfg ->
  ?chaos:Oracle.chaos ->
  ?only:string list ->
  ?log:(string -> unit) ->
  seed:int ->
  unit ->
  summary

(** Re-check every stored reproducer in [dir]; a reproducer passes when
    its oracle reports no divergence (i.e. the bug stays fixed). *)
val check_corpus :
  ?chaos:Oracle.chaos -> ?log:(string -> unit) -> dir:string -> unit -> summary
