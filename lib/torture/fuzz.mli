(** The fuzzing campaign: generate → differential check → shrink.

    A run is fully determined by [(seed, count, fuel, max_cycles,
    watchdog, faults)]: program [i] is generated from
    {!Gen.program_seed}[ ~run_seed ~index:i], checked by the oracle, and
    every divergent program is delta-debugged to a minimal reproducer.
    The report — including its JSON rendering — contains no wall-clock
    data, so it is byte-identical across runs and across [--jobs]
    values (oracle checks are scheduled on {!Exec.Pool}, which returns
    outcomes in job order; shrinking runs serially in index order). *)

type finding = {
  f_index : int;  (** program index within the run *)
  f_seed : int64;  (** the program's own generator seed *)
  f_classes : string list;  (** sorted, deduplicated oracle class keys *)
  f_details : (string * string) list;  (** (class key, detail), oracle order *)
  f_shrunk : Front.Ast.program;  (** the minimal reproducer *)
  f_stats : Shrink.stats;
  f_corpus : string option;  (** reproducer path, when a corpus dir was given *)
}

type report = {
  r_seed : int64;
  r_count : int;
  r_fuel : int;
  r_max_cycles : int;
  r_watchdog : int;
  r_findings : finding list;  (** ascending index *)
  r_classes : (string * int) list;  (** divergence count per class key, sorted *)
  r_baseline_cycles : int;
      (** summed finished-baseline circuit cycles — a determinism-safe
          work measure the bench harness divides by wall time *)
}

val default_count : int  (** 200 *)

val default_fuel : int  (** 8 *)

(** Run the campaign.  [faults] are injected into every circuit compile
    — the torture tests use a known translation fault to produce a
    deterministic divergence.  [bmc_depth] arms the oracle's
    Absint-vs-BMC cross-check (see {!Oracle.check}); it participates in
    the shrinker's keep predicate, so a [proved-fired:bmc] reproducer
    stays a BMC disagreement all the way down.  [corpus_dir] writes each
    finding's shrunk reproducer as a corpus file (first finding per
    class signature; later duplicates are reported but not written).
    [shrink_attempts] bounds the shrinker's candidate budget per
    finding. *)
val run :
  ?jobs:int ->
  ?seed:int64 ->
  ?count:int ->
  ?fuel:int ->
  ?max_cycles:int ->
  ?watchdog:int ->
  ?faults:Faults.Fault.t list ->
  ?bmc_depth:int ->
  ?shrink_attempts:int ->
  ?corpus_dir:string ->
  unit ->
  report

(** Human-readable summary. *)
val render : report -> string

(** Deterministic JSON payload (no timings, no absolute paths) — the
    [inca fuzz] entry in a {!Core.Report} envelope. *)
val json_of : report -> Json.t

(** Each finding's shrunk reproducer as a fault-injection campaign
    workload (testbench derived with {!Mine.Trace.auto_options}), so a
    divergence class the fuzzer discovers feeds the coverage sweep and
    the mining ranker for free. *)
val workloads : report -> Campaign.workload list
