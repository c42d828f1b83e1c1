(** Fault injection: the hardware-translation bugs of the paper's
    Section 5.1 as IR-to-IR rewrites applied between lowering and
    scheduling.  The software-simulation path interprets the *source*,
    so it never sees these faults — recreating the paper's headline
    scenario: assertions pass in software simulation and fail (or expose
    a hang) only in circuit. *)

(** Which matching site to corrupt (0-based occurrence index). *)
type selector = All | Nth of int

type t =
  | Narrow_compare of { fproc : string; select : selector; mask_bits : int }
      (** Figure 3: a 64-bit comparison compiled as a [mask_bits]-bit
          comparison, so 4294967286 > 4294967296 becomes 22 > 0 *)
  | Read_for_write of { fproc : string; select : selector }
      (** the Triple-DES hang: a block-RAM store translated as a read *)
  | Stuck_stream_bit of {
      fproc : string;
      stream : string;
      select : selector;
      bit : int;
      stuck_to : bool;
    }
      (** a stream-write datapath bit wired to a constant: the value
          written to [stream] has [bit] forced to [stuck_to] *)
  | Drop_stream_write of { fproc : string; stream : string; select : selector }
      (** the FIFO write-enable never asserts: the selected write to
          [stream] is silently dropped while the FSM still advances *)
  | Loop_bound_off_by_one of { fproc : string; select : selector; delta : int64 }
      (** a mistranslated trip count: the selected loop's bound
          comparison sees the bound shifted by [delta] *)

(** Short kind name ("narrow-compare", "read-for-write", …) for campaign
    report rows. *)
val kind_name : t -> string

(** One-line human-readable description of a concrete fault. *)
val describe : t -> string

(** Apply one fault to a program IR (processes other than the target are
    untouched). *)
val apply : t -> Mir.Ir.program_ir -> Mir.Ir.program_ir

val apply_all : t list -> Mir.Ir.program_ir -> Mir.Ir.program_ir

(** Enumerate every candidate fault site of a lowered program as
    concrete single-site ([Nth]-selected) faults: every wide comparison,
    every application store, every stream write (as both a stuck bit and
    a dropped write), and every loop with a rewriteable bound, across
    all hardware processes.  Enumerate on the baseline-strategy IR — the
    ordinals are stable under the instrumented strategies. *)
val sites : Mir.Ir.program_ir -> t list

(** {2 Traversal helpers}

    Exposed for {!Prefilter}, which must number fault sites in exactly
    the order the rewriters and {!sites} do. *)

(** Rewrite every straight-line instruction segment of a body, in the
    shared traversal order all site counting uses. *)
val map_segments :
  (Mir.Ir.ginst list -> Mir.Ir.ginst list) -> Mir.Ir.body -> Mir.Ir.body

(** Rewrite every loop's condition block, pre-order. *)
val map_loop_conds :
  (Mir.Ir.reg -> Mir.Ir.ginst list -> Mir.Ir.ginst list) ->
  Mir.Ir.body ->
  Mir.Ir.body

(** The narrow-compare site predicate (64-bit ordering comparison). *)
val is_wide_compare : Mir.Ir.inst -> bool

(** True when [mem] is an application store target (not a replica
    mirror added by the optimizer). *)
val is_app_store : Mir.Ir.proc_ir -> string -> bool

(** {2 Padded instrumentation (split-stream evaluation)}

    For fork-point mutant evaluation the campaign compiles one design
    per (workload, strategy) with {e every} fault site padded
    simultaneously, instead of one design per mutant.  Each pad is
    parameterized by fresh origin-named registers the program never
    writes: with all parameters at their reset value 0 every pad is an
    arithmetic identity (the padded design behaves exactly like the
    original), and arming a single site — patching its registers via
    {!Sim.Engine.arm} — reproduces the corresponding legacy rewrite's
    semantics.  A marker tap at the head of each site's straight-line
    segment reports first-activation cycles through the engine's
    [on_site] hook: a site activates when control enters its segment. *)

type site = {
  s_index : int;  (** global site index; marker id = base + index *)
  s_fault : t;    (** the equivalent legacy single-site fault *)
  s_proc : string;
  s_arm : (string * int64) list;
      (** origin-name register bindings (within [s_proc]) arming this
          mutant in the padded design *)
  s_padded : bool;
      (** false when the site could not be padded (e.g. an already-
          guarded instruction): evaluate it via the legacy path *)
}

type instrumented = {
  ip_prog : Mir.Ir.program_ir;  (** the padded program, all pads neutral *)
  ip_sites : site list;         (** in {!sites} enumeration order *)
}

val default_marker_base : int

(** Pad every fault site of the program at once.  [ip_sites] lists the
    sites in the exact order (and count) of {!sites} on the same IR. *)
val instrument_all : ?marker_base:int -> Mir.Ir.program_ir -> instrumented
