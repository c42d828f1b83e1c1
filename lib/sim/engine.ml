(** Cycle-accurate simulation of a synthesized design.

    Executes the FSMDs of all hardware processes cycle by cycle against
    registered stream FIFOs and port-limited block RAMs, runs
    modulo-scheduled pipelined loops with overlapped iterations and
    rigid stalling, delivers assertion tap events to checker processes,
    and models the CPU side (testbench feeds/drains and the software
    assertion notification function) as end-of-cycle host handlers.

    This is the "in-circuit" execution of the paper: the behaviours that
    distinguish it from {!Interp} (software simulation) — bounded FIFOs,
    port contention, pipeline rates, injected translation faults, wild
    BRAM addresses — are exactly what in-circuit assertions catch.

    The engine is split in two.  A {e prepared program} resolves a
    design once — stream, memory and extern names to array indices, the
    per-state stream op, tap and store positions, the per-pipe-offset
    stream needs — and is shared read-only by every engine built from
    the same design (every fork mutant, on every worker domain).  The
    {e per-run state} is flat arrays: register files, a preallocated
    write overlay per process, and per-pipe rings of recycled iteration
    contexts, so the cycle loop allocates little beyond the boxed
    [int64] results of {!Value}. *)

module Ir = Mir.Ir
module Fsmd = Hls.Fsmd
module Value = Interp.Value
open Front.Ast

(* --- Configuration -------------------------------------------------------- *)

(** An assertion checker: a small pipelined process fed by a tap.  The
    condition is evaluated [latency] cycles after the tap fires; on
    failure the [code] word is sent on [channel] (a failure stream). *)
type checker = {
  cid : int;          (** assertion id (also the tap id it listens to) *)
  latency : int;
  eval : int64 array -> bool;  (** true = assertion holds *)
  channel : string;
  code : int64;       (** word pushed on failure (id, or bit mask when shared) *)
}

type host_action = [ `Ok | `Abort of string ]

(** Timing assertion (the paper's future work, Section 6): whenever tap
    [from_tap] fires, tap [to_tap] must fire within [budget] cycles.
    Checked in circuit like any other assertion; violations are reported
    through the result (and halt the run unless [soft]). *)
type timing_check = {
  tc_name : string;
  from_tap : int;
  to_tap : int;
  budget : int;
  soft : bool;  (** record but do not halt (NABORT-style) *)
}

type config = {
  max_cycles : int;
  feeds : (string * int64 list) list;  (** testbench input, one value/cycle *)
  drains : string list;                (** streams collected by the testbench *)
  handlers : (string * (int64 -> host_action)) list;
      (** CPU-side stream consumers (e.g. the assertion notification
          function); run at end of cycle, drain everything available *)
  hw_models : (string * (int64 list -> int64)) list;
      (** hardware behaviour of external HDL functions *)
  params : (string * (string * int64) list) list;
      (** per-process initial values of named registers *)
  timing_checks : timing_check list;
  trace : bool;
      (** capture a waveform of every FSM state and source-named
          register (the SignalTap/ChipScope view; see {!Trace}) *)
  host_poll_interval : int;
      (** cycles between host handler runs: 1 models an Impulse-C
          streaming bridge, larger values model a Carte-C style DMA
          mailbox the CPU polls (paper Section 4.3) *)
  watchdog : int option;
      (** live-lock watchdog: when [Some n], the run is stopped with
          {!Livelock} after [n] consecutive cycles without forward
          progress — no stream push/pop, no tap event, no register or
          memory value actually changing, no process halting.  A
          spinning loop (the Triple-DES hang of Section 5.1) keeps the
          FSM busy, so it never trips the no-activity {!Hang} detector
          and would otherwise burn the whole cycle budget. *)
  on_tap : (int -> int -> int64 array -> unit) option;
      (** external tap observer, called as [f cycle id values] on every
          tap execution before the checkers evaluate — lets a model
          checker compare its predicted fire schedule against the
          engine cycle for cycle *)
  on_site : (int -> int -> unit) option;
      (** fault-site activity observer, called as [f cycle site] when a
          marker tap (id >= {!marker_base}) executes.  Markers are pure
          probes: they bypass the checkers, the timing machinery and the
          watchdog's tap accounting entirely *)
}

let default_config =
  { max_cycles = 1_000_000; feeds = []; drains = []; handlers = []; hw_models = [];
    params = []; timing_checks = []; trace = false; host_poll_interval = 1;
    watchdog = None; on_tap = None; on_site = None }

(* Tap ids at or above this base are fault-site activity markers, not
   assertions.  Kept far above any real assertion id; Ir.validate
   enforces program-wide uniqueness either way. *)
let marker_base = 1_000_000

(* --- Results ---------------------------------------------------------------- *)

type pipe_stats = {
  ps_proc : string;
  ii_static : int;
  depth_static : int;
  issues : int;
  ii_measured : float;
  latency_measured : int;
}

type outcome =
  | Finished
  | Hang of (string * int) list  (** blocked processes and their state ids *)
  | Livelock of (string * int) list
      (** watchdog verdict: the named processes kept cycling through
          these states with no forward progress for the configured
          window — a spin that {!Out_of_cycles} would only surface
          after the whole budget *)
  | Aborted of string
  | Out_of_cycles
  | Sim_error of string

type result = {
  outcome : outcome;
  cycles : int;
  drained : (string * int64 list) list;
  host_log : string list;
  pipes : pipe_stats list;
  port_violations : (string * int) list;
  wild_accesses : (string * int) list;
  fifo_stats : (string * int * int * int) list;  (** name, pushes, pops, max occupancy *)
  tap_events : int;
  timing_violations : (string * int) list;
      (** timing-assertion name and the cycle at which it expired *)
  vcd : string option;  (** waveform dump when [trace] was enabled *)
}

exception Abort_sim of string
exception Sim_failure of string

(* --- The prepared program ---------------------------------------------------- *)

(* One instruction with its names resolved: [fifo], [mem] and [ext] are
   indices into the engine's FIFO array, the process's BRAM array and
   the extern-model array, or -1 for a name the design does not declare
   (reported as a {!Sim_failure} when, and only when, it executes). *)
type kind =
  | K_bin of { dst : Ir.reg; op : binop; ty : ty; a : Ir.operand; b : Ir.operand }
  | K_un of { dst : Ir.reg; op : unop; ty : ty; a : Ir.operand }
  | K_copy of { dst : Ir.reg; ty : ty; src : Ir.operand }
  | K_cast of { dst : Ir.reg; from_ty : ty; to_ty : ty; src : Ir.operand }
  | K_load of { dst : Ir.reg; mem : int; mname : string; addr : Ir.operand }
  | K_store of { mem : int; mname : string; addr : Ir.operand; v : Ir.operand }
  | K_sread of { dst : Ir.reg; fifo : int; stream : string }
  | K_swrite of { fifo : int; stream : string; v : Ir.operand }
  | K_ext of { dst : Ir.reg; ext : int; func : string; args : Ir.operand list; latency : int }
  | K_tap of { id : int; args : Ir.operand array }

(* [guard < 0] = unguarded; otherwise the op takes effect only when
   register [guard] holds boolean [want]. *)
type op = { guard : Ir.reg; want : bool; k : kind }

type pstate = {
  ops : op array;
  stream : int;  (** index in [ops] of the state's stream op; -1 if none *)
  taps : int array;  (** indices in [ops] of its taps, program order *)
  tap_entry : bool array;
      (** per tap: an operand-less marker before the stream op, which
          fires on state entry even while the handshake stalls *)
  stores : int array;  (** indices in [ops] of its stores *)
  next : Fsmd.next;
}

type ppipe = {
  pid : int;  (** index in the process's pipe table *)
  pipe : Fsmd.pipe;
  cond_ops : op array;
  step_ops : op array;
  cycle_ops : op array array;  (** by cycle offset *)
  needs : int array array;  (** per offset: indices of its stream ops *)
  stats_idx : int;  (** position in the engine-wide pipe-stats table *)
}

type pproc = {
  fsmd : Fsmd.t;
  name : string;
  nregs : int;
  reg_ty : ty array;
  states : pstate array;
  pipes : ppipe array;
  mems : Ir.mem array;  (** one per distinct memory name *)
  mem_report_order : int list;
      (** memory indices in the order port/wild reports list them *)
}

type prog = {
  streams : stream_decl array;  (** one per distinct stream name *)
  stream_index : (string, int) Hashtbl.t;  (** never mutated after [prepare] *)
  procs : pproc array;
  externs : string array;  (** distinct extern functions called *)
  total_pipes : int;
}

(* Distinct names in first-occurrence order, each bound to its last
   declaration — the same binding a [Hashtbl.replace] loop produces. *)
let index_by_name (name : 'a -> string) (decls : 'a list) : 'a array * (string, int) Hashtbl.t =
  let idx = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun d ->
      if not (Hashtbl.mem idx (name d)) then begin
        Hashtbl.replace idx (name d) (List.length !order);
        order := d :: !order
      end)
    decls;
  let arr = Array.of_list (List.rev !order) in
  List.iter (fun d -> arr.(Hashtbl.find idx (name d)) <- d) decls;
  (arr, idx)

let lookup tbl name = match Hashtbl.find_opt tbl name with Some i -> i | None -> -1

let prepare_op ~streams ~mems ~externs (g : Ir.ginst) : op =
  let guard, want = match g.Ir.guard with None -> (-1, true) | Some (r, w) -> (r, w) in
  let k =
    match g.Ir.i with
    | Ir.Bin { dst; op; a; b; ty } -> K_bin { dst; op; ty; a; b }
    | Ir.Un { dst; op; a; ty } -> K_un { dst; op; ty; a }
    | Ir.Copy { dst; src; ty } -> K_copy { dst; ty; src }
    | Ir.Castop { dst; src; from_ty; to_ty } -> K_cast { dst; from_ty; to_ty; src }
    | Ir.Load { dst; mem; addr } -> K_load { dst; mem = lookup mems mem; mname = mem; addr }
    | Ir.Store { mem; addr; v } -> K_store { mem = lookup mems mem; mname = mem; addr; v }
    | Ir.Sread { dst; stream } -> K_sread { dst; fifo = lookup streams stream; stream }
    | Ir.Swrite { stream; v } -> K_swrite { fifo = lookup streams stream; stream; v }
    | Ir.Extcall { dst; func; args; latency } ->
        if not (Hashtbl.mem externs func) then
          Hashtbl.replace externs func (Hashtbl.length externs);
        K_ext { dst; ext = Hashtbl.find externs func; func; args; latency }
    | Ir.Tap { id; args } -> K_tap { id; args = Array.of_list args }
  in
  { guard; want; k }

let is_stream_kind = function K_sread _ | K_swrite _ -> true | _ -> false

let indices_where f (ops : op array) =
  let l = ref [] in
  for i = Array.length ops - 1 downto 0 do
    if f ops.(i) then l := i :: !l
  done;
  Array.of_list !l

let prepare_state prep (st : Fsmd.state) : pstate =
  let ops = Array.of_list (List.map prep st.Fsmd.ops) in
  let stream =
    match indices_where (fun o -> is_stream_kind o.k) ops with [||] -> -1 | a -> a.(0)
  in
  let taps = indices_where (fun o -> match o.k with K_tap _ -> true | _ -> false) ops in
  let stream_pos = if stream < 0 then max_int else stream in
  let tap_entry =
    Array.map
      (fun i -> match ops.(i).k with K_tap { args; _ } -> args = [||] && i < stream_pos | _ -> false)
      taps
  in
  let stores = indices_where (fun o -> match o.k with K_store _ -> true | _ -> false) ops in
  { ops; stream; taps; tap_entry; stores; next = st.Fsmd.next }

let prepare_proc ~streams ~externs ~pipe_base (fsmd : Fsmd.t) : pproc =
  let proc = fsmd.Fsmd.proc in
  let nregs = List.fold_left (fun acc (r, _) -> Stdlib.max acc (r + 1)) 0 proc.Ir.regs in
  let nregs = Stdlib.max nregs 1 in
  let reg_ty = Array.make nregs int32_t in
  List.iter (fun (r, info) -> reg_ty.(r) <- info.Ir.rty) proc.Ir.regs;
  let mems, mem_idx = index_by_name (fun (m : Ir.mem) -> m.Ir.mname) proc.Ir.mems in
  (* Reports list memories in the fold order of the name table the
     engine used to keep; rebuild that table once to reproduce it. *)
  let mem_report_order =
    let h = Hashtbl.create 4 in
    List.iter (fun (m : Ir.mem) -> Hashtbl.replace h m.Ir.mname (Hashtbl.find mem_idx m.Ir.mname))
      proc.Ir.mems;
    Hashtbl.fold (fun _ i acc -> i :: acc) h []
  in
  let prep = prepare_op ~streams ~mems:mem_idx ~externs in
  let prep_list l = Array.of_list (List.map prep l) in
  let pipes =
    Array.mapi
      (fun pid (pipe : Fsmd.pipe) ->
        let cycle_ops = Array.map prep_list pipe.Fsmd.cycle_ops in
        {
          pid;
          pipe;
          cond_ops = prep_list pipe.Fsmd.cond_insts;
          step_ops = prep_list pipe.Fsmd.step_insts;
          cycle_ops;
          needs = Array.map (indices_where (fun o -> is_stream_kind o.k)) cycle_ops;
          stats_idx = pipe_base + pid;
        })
      fsmd.Fsmd.pipes
  in
  {
    fsmd;
    name = proc.Ir.name;
    nregs;
    reg_ty;
    states = Array.map (prepare_state prep) fsmd.Fsmd.states;
    pipes;
    mems;
    mem_report_order;
  }

let prepare ~(streams : stream_decl list) ~(fsmds : Fsmd.t list) : prog =
  let streams, stream_index = index_by_name (fun (s : stream_decl) -> s.sname) streams in
  let externs = Hashtbl.create 4 in
  let pipe_base = ref 0 in
  let procs =
    Array.of_list
      (List.map
         (fun (f : Fsmd.t) ->
           let p = prepare_proc ~streams:stream_index ~externs ~pipe_base:!pipe_base f in
           pipe_base := !pipe_base + Array.length f.Fsmd.pipes;
           p)
         fsmds)
  in
  let ext_names = Array.make (Hashtbl.length externs) "" in
  Hashtbl.iter (fun n i -> ext_names.(i) <- n) externs;
  { streams; stream_index; procs; externs = ext_names; total_pipes = !pipe_base }

(* Prepared programs of recently simulated designs, keyed by the
   physical identity of their stream and FSMD lists: a campaign builds
   one engine per mutant from the same compiled design, on any worker
   domain, and all of them share one read-only program.  A lost race
   between two domains only costs a duplicate [prepare]. *)
let recent : (stream_decl list * Fsmd.t list * prog) list Atomic.t = Atomic.make []
let recent_max = 8

let prog_of ~streams ~fsmds =
  match List.find_opt (fun (s, f, _) -> s == streams && f == fsmds) (Atomic.get recent) with
  | Some (_, _, p) -> p
  | None ->
      let p = prepare ~streams ~fsmds in
      let keep = List.filteri (fun i _ -> i < recent_max - 1) (Atomic.get recent) in
      Atomic.set recent ((streams, fsmds, p) :: keep);
      p

(* --- Runtime state ----------------------------------------------------------- *)

(* A write overlay over a base register array: reads prefer the overlay,
   writes stay staged until the caller flushes them.  [dirty] lists the
   set registers so clearing and flushing touch only those.  A process's
   sequential overlay uses the register file as [base]; a pipelined
   iteration uses its issue-time register copy and also carries its
   position and pending extcall results. *)
type frame = {
  base : int64 array;
  vals : int64 array;
  set : Bytes.t;  (** ['\001'] where [vals] holds the register's value *)
  dirty : int array;
  mutable ndirty : int;
  mutable cyc : int;  (** iteration cycle offset *)
  mutable issued_at : int;
  mutable pending : (Ir.reg * int64 * int) list;  (** extcall results: due iteration cycle *)
}

let make_frame nregs base =
  { base; vals = Array.make nregs 0L; set = Bytes.make nregs '\000'; dirty = Array.make nregs 0;
    ndirty = 0; cyc = 0; issued_at = 0; pending = [] }

(* Placeholder for ring slots no iteration has used yet; never mutated. *)
let no_frame = make_frame 0 [||]

let is_set (fr : frame) r = Bytes.get fr.set r <> '\000'

let read (fr : frame) r = if is_set fr r then fr.vals.(r) else fr.base.(r)

let stage (fr : frame) r v =
  if not (is_set fr r) then begin
    Bytes.set fr.set r '\001';
    fr.dirty.(fr.ndirty) <- r;
    fr.ndirty <- fr.ndirty + 1
  end;
  fr.vals.(r) <- v

let clear (fr : frame) =
  for i = 0 to fr.ndirty - 1 do
    Bytes.set fr.set fr.dirty.(i) '\000'
  done;
  fr.ndirty <- 0

let unstage (fr : frame) r =
  if is_set fr r then begin
    Bytes.set fr.set r '\000';
    let j = ref 0 in
    for i = 0 to fr.ndirty - 1 do
      if fr.dirty.(i) <> r then begin
        fr.dirty.(!j) <- fr.dirty.(i);
        incr j
      end
    done;
    fr.ndirty <- !j
  end

(* Staged bindings sorted by register: the snapshot form. *)
let bindings (fr : frame) =
  List.sort compare (List.init fr.ndirty (fun i -> (fr.dirty.(i), fr.vals.(fr.dirty.(i)))))

type pipe_rt = {
  rp : ppipe;
  ring : frame array;
      (** in-flight iterations, oldest at [head]; slots outside the live
          window are the recycled-context pool *)
  mutable head : int;
  mutable count : int;
  mutable countdown : int;
  mutable done_issuing : bool;
  mutable issues : int;
  mutable first_issue : int;
  mutable last_issue : int;
  mutable max_latency : int;
  final_writes : frame;
      (** last-retired value per register, applied when the pipe drains:
          late (non-loop-carried) writes must not clobber the issue-time
          architectural state while younger iterations are in flight *)
}

type mode = Seq | Pipe of pipe_rt | Halted

type proc = {
  pp : pproc;
  regs : int64 array;
  ov : frame;  (** the current state's staged writes, over [regs] *)
  brams : Bram.t array;
  rts : pipe_rt option array;  (** one per pipe, built on first entry *)
  mutable state : int;
  mutable mode : mode;
  mutable ext_pending : (Ir.reg * int64 * int) list;  (** due absolute cycle *)
  mutable entry_taps_fired : bool;
      (** operand-less marker taps of the current state already fired
          (they fire on state entry, even while a handshake stalls) *)
}

type feed = { fd_fifo : int; fd_name : string; mutable fd_left : int64 list }
type drain = { dr_fifo : int; dr_name : string; mutable dr_acc : int64 list }

type t = {
  cfg : config;
  prog : prog;
  fifos : Fifo.t array;
  procs : proc array;
  checkers : checker list;
  models : (int64 list -> int64) option array;  (** by extern index *)
  handlers : (int * string * (int64 -> host_action)) array;
  mutable feeds : feed array;
  mutable drains : drain array;
  mutable cycle : int;
  mutable activity : bool;
  mutable progressed : bool;
      (** forward progress this cycle: some architectural value actually
          changed (register, FIFO contents, tap event, process halting).
          Distinct from [activity], which a spinning FSM also produces;
          the watchdog consumes the difference. *)
  mutable last_progress : int;  (** cycle of the last forward progress *)
  mutable tap_count : int;
  (* failure words awaiting their channel (after checker latency) *)
  mutable pending_failures : (int * string * int64) list;  (** due cycle, channel, word *)
  mutable host_log : string list;
  mutable pipe_stats : pipe_stats array;
  (* timing assertions: outstanding deadlines per check, oldest first *)
  mutable deadlines : (timing_check * int) list;  (** check, expiry cycle *)
  mutable timing_violations : (string * int) list;
  tracer : (Trace.t * (Trace.signal * (Ir.reg * Trace.signal) list) array) option;
      (** per process: FSM-state signal and one signal per named register *)
}

let make_rt (pp : pproc) (rp : ppipe) =
  {
    rp;
    ring = Array.make (Stdlib.max rp.pipe.Fsmd.depth 1 + 1) no_frame;
    head = 0;
    count = 0;
    countdown = 0;
    done_issuing = false;
    issues = 0;
    first_issue = 0;
    last_issue = 0;
    max_latency = 0;
    final_writes = make_frame pp.nregs [||];
  }

let make_proc cfg (pp : pproc) : proc =
  let regs = Array.make pp.nregs 0L in
  (* parameter initialization by origin name *)
  (match List.assoc_opt pp.name cfg.params with
  | Some bindings ->
      List.iter
        (fun (r, (info : Ir.reg_info)) ->
          match info.Ir.origin with
          | Some name -> (
              match List.assoc_opt name bindings with
              | Some v -> regs.(r) <- Value.wrap_ty info.Ir.rty v
              | None -> ())
          | None -> ())
        pp.fsmd.Fsmd.proc.Ir.regs
  | None -> ());
  let brams =
    Array.map
      (fun (m : Ir.mem) ->
        Bram.create ?init:m.Ir.rom_init ~name:(pp.name ^ "." ^ m.Ir.mname)
          ~length:m.Ir.length ~ports:m.Ir.ports ())
      pp.mems
  in
  {
    pp;
    regs;
    ov = make_frame pp.nregs regs;
    brams;
    rts = Array.make (Array.length pp.pipes) None;
    state = pp.fsmd.Fsmd.entry;
    mode = Seq;
    ext_pending = [];
    entry_taps_fired = false;
  }

(* One feed per stream, the last binding winning. *)
let make_feeds prog feeds =
  Array.map
    (fun (s, vs) -> { fd_fifo = lookup prog.stream_index s; fd_name = s; fd_left = vs })
    (fst (index_by_name fst feeds))

let make_drain prog s acc = { dr_fifo = lookup prog.stream_index s; dr_name = s; dr_acc = acc }

let create ?(cfg = default_config) ~(streams : stream_decl list)
    ~(fsmds : Fsmd.t list) ~(checkers : checker list) () : t =
  let prog = prog_of ~streams ~fsmds in
  let fifos =
    Array.map (fun (s : stream_decl) -> Fifo.create ~name:s.sname ~depth:s.depth) prog.streams
  in
  let procs = Array.map (make_proc cfg) prog.procs in
  let drains =
    Array.map (fun s -> make_drain prog s []) (fst (index_by_name Fun.id cfg.drains))
  in
  let tracer =
    if not cfg.trace then None
    else begin
      let tr = Trace.create () in
      let per_proc =
        Array.map
          (fun (p : proc) ->
            let pname = p.pp.name in
            let state_sig = Trace.declare tr ~name:(pname ^ ".state") ~width:16 in
            let reg_sigs =
              List.filter_map
                (fun (r, (info : Ir.reg_info)) ->
                  match info.Ir.origin with
                  | Some v ->
                      let width =
                        match info.Ir.rty with
                        | Tint (_, w) -> bits_of_width w
                        | Tbool -> 1
                        | _ -> 32
                      in
                      Some (r, Trace.declare tr ~name:(pname ^ "." ^ v) ~width)
                  | None -> None)
                p.pp.fsmd.Fsmd.proc.Ir.regs
            in
            (state_sig, reg_sigs))
          procs
      in
      Some (tr, per_proc)
    end
  in
  {
    cfg;
    prog;
    fifos;
    procs;
    checkers;
    models = Array.map (fun f -> List.assoc_opt f cfg.hw_models) prog.externs;
    handlers =
      Array.of_list
        (List.map (fun (s, h) -> (lookup prog.stream_index s, s, h)) cfg.handlers);
    feeds = make_feeds prog cfg.feeds;
    drains;
    cycle = 0;
    activity = false;
    progressed = false;
    last_progress = 0;
    tap_count = 0;
    pending_failures = [];
    host_log = [];
    pipe_stats = [||];
    deadlines = [];
    timing_violations = [];
    tracer;
  }

let pipe_runtime (p : proc) pid =
  match p.rts.(pid) with
  | Some rt -> rt
  | None ->
      let rt = make_rt p.pp p.pp.pipes.(pid) in
      p.rts.(pid) <- Some rt;
      rt

let fifo t i name =
  if i < 0 then raise (Sim_failure (Printf.sprintf "unknown stream %s" name)) else t.fifos.(i)

let fifo_named t name = fifo t (lookup t.prog.stream_index name) name

let bram (p : proc) i name =
  if i < 0 then raise (Sim_failure (Printf.sprintf "unknown memory %s" name)) else p.brams.(i)

(* [i] always names a declared stream here: the FIFO lookup before it
   has already failed otherwise. *)
let wrap_stream t i v = Value.wrap_ty t.prog.streams.(i).elem v

(* --- Tap delivery ------------------------------------------------------------ *)

let rec fire_checkers t id values = function
  | [] -> ()
  | c :: rest ->
      if c.cid = id && not (c.eval values) then
        t.pending_failures <- (t.cycle + c.latency, c.channel, c.code) :: t.pending_failures;
      fire_checkers t id values rest

(* Tap event: run the checkers listening on this tap id, and arm /
   discharge timing assertions anchored at it. *)
let deliver_tap t (id : int) (values : int64 array) =
  if id >= marker_base then begin
    (* site-activity marker: observe and return.  Must not count as a
       tap event (a marker inside a spin loop would otherwise defeat the
       live-lock watchdog) and must not touch checkers or deadlines. *)
    match t.cfg.on_site with
    | Some f -> f t.cycle (id - marker_base)
    | None -> ()
  end
  else begin
    t.tap_count <- t.tap_count + 1;
    (match t.cfg.on_tap with Some f -> f t.cycle id values | None -> ());
    fire_checkers t id values t.checkers;
    if t.deadlines <> [] || t.cfg.timing_checks <> [] then begin
      (* a to-tap firing discharges the oldest outstanding deadline of
         each matching check; discharge before arming so a
         self-referential check (from = to) measures the interval
         between consecutive firings *)
      let discharged = ref [] in
      t.deadlines <-
        List.filter
          (fun ((tc : timing_check), _) ->
            if tc.to_tap = id && not (List.memq tc !discharged) then begin
              discharged := tc :: !discharged;
              false
            end
            else true)
          t.deadlines;
      List.iter
        (fun (tc : timing_check) ->
          if tc.from_tap = id then t.deadlines <- t.deadlines @ [ (tc, t.cycle + tc.budget) ])
        t.cfg.timing_checks
    end
  end

(* --- Instruction evaluation --------------------------------------------------- *)

let operand fr = function Ir.Imm n -> n | Ir.Reg r -> read fr r

let guard_ok fr (o : op) = o.guard < 0 || Value.to_bool (read fr o.guard) = o.want

let tap_values fr (args : Ir.operand array) =
  let n = Array.length args in
  if n = 0 then [||]
  else begin
    let vs = Array.make n 0L in
    for i = 0 to n - 1 do
      vs.(i) <- operand fr args.(i)
    done;
    vs
  end

(* The value of a pure ALU op; [Value] is the one scalar semantics. *)
let alu fr = function
  | K_bin { dst; op; ty; a; b } -> (
      match Value.binop op ty (operand fr a) (operand fr b) with
      | v -> v
      | exception Value.Division_by_zero ->
          raise (Sim_failure (Printf.sprintf "division by zero (r%d)" dst)))
  | K_un { op; ty; a; _ } -> Value.unop op ty (operand fr a)
  | K_copy { ty; src; _ } -> Value.wrap_ty ty (operand fr src)
  | K_cast { from_ty; to_ty; src; _ } -> Value.cast ~from_ty ~to_ty (operand fr src)
  | _ -> invalid_arg "Engine.alu: not an ALU op"

let call_model t ext func fr args =
  match t.models.(ext) with
  | Some f -> f (List.map (operand fr) args)
  | None -> raise (Sim_failure (Printf.sprintf "no hardware model for extern %s" func))

(* An op of a sequential state: register writes stay staged in the
   process overlay until the state commits. *)
let exec_staged t (p : proc) (o : op) =
  let fr = p.ov in
  match o.k with
  | K_bin { dst; _ } | K_un { dst; _ } | K_copy { dst; _ } | K_cast { dst; _ } ->
      stage fr dst (alu fr o.k)
  | K_load { dst; mem; mname; addr } ->
      stage fr dst (Bram.read (bram p mem mname) (operand fr addr))
  | K_store { mem; mname; addr; v } ->
      let b = bram p mem mname in
      Bram.write b (operand fr addr) (operand fr v)
  | K_ext { dst; ext; func; args; latency } ->
      let v = call_model t ext func fr args in
      p.ext_pending <- (dst, v, t.cycle + latency - 1) :: p.ext_pending
  | K_tap { id; args } -> deliver_tap t id (tap_values fr args)
  | K_sread _ | K_swrite _ -> invalid_arg "Engine.exec_staged: stream op"

(* An issue-time op of a pipelined loop (condition or step): pure ALU by
   construction, staged in the process overlay like a sequential state.
   Real taps are pure latches and never scheduled at issue time, but
   loop-site activity markers do live in the condition block — let
   those through. *)
let exec_issue t (p : proc) (o : op) =
  let fr = p.ov in
  match o.k with
  | K_bin { dst; _ } | K_un { dst; _ } | K_copy { dst; _ } | K_cast { dst; _ } ->
      stage fr dst (alu fr o.k)
  | K_load { mname; _ } | K_store { mname; _ } ->
      raise (Sim_failure ("memory op at issue: " ^ mname))
  | K_ext { func; _ } ->
      raise (Sim_failure (Printf.sprintf "no hardware model for extern %s" func))
  | K_tap { id; args } -> if id >= marker_base then deliver_tap t id (tap_values fr args)
  | K_sread _ | K_swrite _ -> invalid_arg "Engine.exec_issue: stream op"

(* A write by an in-flight iteration: wrapped at once into its context,
   and — during the iteration's first [ii] cycles, while it still owns
   the architectural registers — into the register file. *)
let iter_write t (p : proc) (rt : pipe_rt) (it : frame) r v =
  let v' = Value.wrap_ty p.pp.reg_ty.(r) v in
  if not (Int64.equal (read it r) v') then t.progressed <- true;
  stage it r v';
  if it.cyc <= rt.rp.pipe.Fsmd.ii - 1 then p.regs.(r) <- v'

let exec_iter t (p : proc) (rt : pipe_rt) (it : frame) (o : op) =
  match o.k with
  | K_sread { dst; fifo = i; stream } ->
      iter_write t p rt it dst (Fifo.pop (fifo t i stream));
      t.progressed <- true
  | K_swrite { fifo = i; stream; v } ->
      let f = fifo t i stream in
      Fifo.push f (wrap_stream t i (operand it v));
      t.progressed <- true
  | K_bin { dst; _ } | K_un { dst; _ } | K_copy { dst; _ } | K_cast { dst; _ } ->
      iter_write t p rt it dst (alu it o.k)
  | K_load { dst; mem; mname; addr } ->
      iter_write t p rt it dst (Bram.read (bram p mem mname) (operand it addr))
  | K_store { mem; mname; addr; v } ->
      let b = bram p mem mname in
      Bram.write b (operand it addr) (operand it v)
  | K_ext { dst; ext; func; args; latency } ->
      let v = call_model t ext func it args in
      it.pending <- (dst, v, it.cyc + latency) :: it.pending
  | K_tap { id; args } -> deliver_tap t id (tap_values it args)

(* --- Sequential state execution ---------------------------------------------- *)

(* Flush the process overlay into the register file, wrapping each value
   to its register's type.  Returns true when some register actually
   changed value — the forward-progress signal the live-lock watchdog
   relies on.  The overlay itself stays set: the state's [Branch] still
   reads the unwrapped values, and {!advance} clears it. *)
let commit_overlay (p : proc) =
  let fr = p.ov in
  let changed = ref false in
  for i = 0 to fr.ndirty - 1 do
    let r = fr.dirty.(i) in
    let v' = Value.wrap_ty p.pp.reg_ty.(r) fr.vals.(r) in
    if not (Int64.equal p.regs.(r) v') then begin
      p.regs.(r) <- v';
      changed := true
    end
  done;
  !changed

let reset_rt (rt : pipe_rt) =
  rt.head <- 0;
  rt.count <- 0;
  rt.countdown <- 0;
  rt.done_issuing <- false;
  rt.issues <- 0;
  rt.first_issue <- 0;
  rt.last_issue <- 0;
  rt.max_latency <- 0;
  clear rt.final_writes

let advance t (p : proc) (st : pstate) =
  (match st.next with
  | Fsmd.Goto n -> p.state <- n
  | Fsmd.Branch (c, a, b) -> p.state <- (if Value.to_bool (read p.ov c) then a else b)
  | Fsmd.Enter_pipe pid ->
      let rt = pipe_runtime p pid in
      reset_rt rt;
      p.mode <- Pipe rt
  | Fsmd.Done ->
      p.mode <- Halted;
      t.progressed <- true);
  clear p.ov

(* Taps may share a stream handshake state (they are pure latches).
   Operand-less markers that precede the stream op in program order
   mark a point reached on state *entry* — they fire even while the
   handshake stalls; markers after it, and data taps, fire only once
   the handshake succeeds. *)
let run_taps t (p : proc) (st : pstate) ~stalled =
  for j = 0 to Array.length st.taps - 1 do
    let o = st.ops.(st.taps.(j)) in
    if guard_ok p.ov o then begin
      let entry = st.tap_entry.(j) in
      let fire =
        if stalled then entry && not p.entry_taps_fired
        else (not entry) || not p.entry_taps_fired
      in
      if fire then exec_staged t p o
    end
  done

(* The handshake of a stream state succeeded: taps, commit, advance. *)
let finish_handshake t (p : proc) st =
  run_taps t p st ~stalled:false;
  if commit_overlay p then t.progressed <- true;
  advance t p st;
  p.entry_taps_fired <- false

let stall t (p : proc) st =
  (* stalled: marker taps still fire once on entry *)
  run_taps t p st ~stalled:true;
  p.entry_taps_fired <- true;
  false

let rec store_passes (p : proc) (st : pstate) i =
  i < Array.length st.stores
  && (guard_ok p.ov st.ops.(st.stores.(i)) || store_passes p st (i + 1))

(* Returns true if the process advanced (activity). *)
let step_seq t (p : proc) =
  let st = p.pp.states.(p.state) in
  if st.stream >= 0 then begin
    let o = st.ops.(st.stream) in
    match o.k with
    | K_sread { dst; fifo = i; stream } ->
        let f = fifo t i stream in
        if Fifo.can_pop f then begin
          (* wrap to the destination register's width here, not just at
             overlay commit: same-state consumers (taps) read the
             overlay value *)
          stage p.ov dst (Value.wrap_ty p.pp.reg_ty.(dst) (Fifo.pop f));
          t.progressed <- true;
          finish_handshake t p st;
          true
        end
        else stall t p st
    | K_swrite { fifo = i; stream; v } ->
        let f = fifo t i stream in
        if Fifo.can_push f then begin
          if guard_ok p.ov o then begin
            Fifo.push f (wrap_stream t i (operand p.ov v));
            t.progressed <- true
          end;
          finish_handshake t p st;
          true
        end
        else stall t p st
    | _ -> assert false
  end
  else begin
    let ops = st.ops in
    for i = 0 to Array.length ops - 1 do
      let o = ops.(i) in
      if guard_ok p.ov o then exec_staged t p o
    done;
    (* memory writes bypass the overlay; count them as progress rather
       than comparing staged BRAM contents *)
    if store_passes p st 0 then t.progressed <- true;
    if commit_overlay p then t.progressed <- true;
    advance t p st;
    true
  end

(* --- Pipelined loop execution -------------------------------------------------- *)

(* Evaluate issue-time instructions (cond or step) over the
   architectural registers and commit them.  The overlay is left set so
   the caller can read the unwrapped condition; it must [clear] it. *)
let eval_issue t (p : proc) (ops : op array) =
  for i = 0 to Array.length ops - 1 do
    let o = ops.(i) in
    if guard_ok p.ov o then exec_issue t p o
  done;
  if commit_overlay p then t.progressed <- true

let slot (rt : pipe_rt) k = (rt.head + k) mod Array.length rt.ring

(* Can every guarded stream op [ops.(needs.(j..))] of iteration [it] go? *)
let rec needs_ready t (it : frame) (ops : op array) needs j =
  j >= Array.length needs
  ||
  let o = ops.(needs.(j)) in
  (not (guard_ok it o)
  ||
  match o.k with
  | K_sread { fifo = i; stream; _ } -> Fifo.can_pop (fifo t i stream)
  | K_swrite { fifo = i; stream; _ } -> Fifo.can_push (fifo t i stream)
  | _ -> true)
  && needs_ready t it ops needs (j + 1)

let iter_ready t (rt : pipe_rt) (it : frame) =
  it.cyc >= rt.rp.pipe.Fsmd.depth
  || needs_ready t it rt.rp.cycle_ops.(it.cyc) rt.rp.needs.(it.cyc) 0

let rec all_ready t (rt : pipe_rt) k =
  k >= rt.count || (iter_ready t rt rt.ring.(slot rt k) && all_ready t rt (k + 1))

(* Deliver pending extcall results due at this iteration cycle. *)
let deliver_pending (p : proc) (rt : pipe_rt) (it : frame) =
  let ii = rt.rp.pipe.Fsmd.ii in
  it.pending <-
    List.filter
      (fun (r, v, due) ->
        if due <= it.cyc then begin
          stage it r v;
          if it.cyc <= ii - 1 then p.regs.(r) <- Value.wrap_ty p.pp.reg_ty.(r) v;
          false
        end
        else true)
      it.pending

(* Take the next ring slot for a new iteration, recycling its context. *)
let issue_slot (p : proc) (rt : pipe_rt) =
  let s = slot rt rt.count in
  if rt.ring.(s) == no_frame then rt.ring.(s) <- make_frame p.pp.nregs (Array.make p.pp.nregs 0L);
  rt.count <- rt.count + 1;
  let it = rt.ring.(s) in
  clear it;
  it

let step_pipe t (p : proc) (rt : pipe_rt) =
  let pipe = rt.rp.pipe in
  (* 1. stall check: every stream op due this cycle must be ready *)
  if not (all_ready t rt 0) then false
  else begin
    let ii = pipe.Fsmd.ii in
    (* 2. advance in-flight iterations, oldest first *)
    for k = 0 to rt.count - 1 do
      let it = rt.ring.(slot rt k) in
      if it.pending <> [] then deliver_pending p rt it;
      let ops = rt.rp.cycle_ops.(it.cyc) in
      for j = 0 to Array.length ops - 1 do
        let o = ops.(j) in
        if guard_ok it o then exec_iter t p rt it o
      done;
      it.cyc <- it.cyc + 1
    done;
    (* 3. retire completed iterations (oldest first), flushing contexts *)
    while rt.count > 0 && rt.ring.(rt.head).cyc >= pipe.Fsmd.depth do
      let it = rt.ring.(rt.head) in
      for i = 0 to it.ndirty - 1 do
        let r = it.dirty.(i) in
        stage rt.final_writes r it.vals.(r)
      done;
      rt.max_latency <- Stdlib.max rt.max_latency (t.cycle - it.issued_at);
      rt.head <- slot rt 1;
      rt.count <- rt.count - 1
    done;
    (* 4. issue a new iteration when the slot opens *)
    if rt.countdown > 0 then rt.countdown <- rt.countdown - 1;
    if (not rt.done_issuing) && rt.countdown = 0 then begin
      eval_issue t p rt.rp.cond_ops;
      let go = Value.to_bool (read p.ov pipe.Fsmd.cond) in
      clear p.ov;
      if go then begin
        let it = issue_slot p rt in
        Array.blit p.regs 0 it.base 0 (Array.length p.regs);
        it.cyc <- 0;
        it.issued_at <- t.cycle;
        it.pending <- [];
        if rt.issues = 0 then rt.first_issue <- t.cycle;
        rt.last_issue <- t.cycle;
        rt.issues <- rt.issues + 1;
        eval_issue t p rt.rp.step_ops;
        clear p.ov;
        rt.countdown <- ii
      end
      else rt.done_issuing <- true
    end;
    (* 5. drained? *)
    if rt.done_issuing && rt.count = 0 then begin
      let fw = rt.final_writes in
      for i = 0 to fw.ndirty - 1 do
        let r = fw.dirty.(i) in
        p.regs.(r) <- Value.wrap_ty p.pp.reg_ty.(r) fw.vals.(r)
      done;
      clear fw;
      (* record stats *)
      let ii_measured =
        if rt.issues <= 1 then float_of_int ii
        else float_of_int (rt.last_issue - rt.first_issue) /. float_of_int (rt.issues - 1)
      in
      if rt.rp.stats_idx < Array.length t.pipe_stats then
        t.pipe_stats.(rt.rp.stats_idx) <-
          {
            ps_proc = p.pp.name;
            ii_static = ii;
            depth_static = pipe.Fsmd.depth;
            issues = rt.issues;
            ii_measured;
            latency_measured = rt.max_latency;
          };
      p.mode <- Seq;
      p.state <- pipe.Fsmd.exit_to;
      t.progressed <- true
    end;
    true
  end

(* --- Main loop ------------------------------------------------------------------ *)

let blocked_info t =
  Array.fold_right
    (fun p acc -> match p.mode with Halted -> acc | _ -> (p.pp.name, p.state) :: acc)
    t.procs []

(* --- blocked-channel attribution ------------------------------------------- *)

(* Which channel op a stalled FSMD state is waiting on.  A state can
   only block on a stream read (empty FIFO) or a stream write (full
   FIFO); scan its ops for the first one.  Lets hang reports name the
   channel, not just a state id. *)
let blocked_channel (f : Fsmd.t) (state : int) : (string * [ `Read | `Write ]) option =
  if state < 0 || state >= Array.length f.Fsmd.states then None
  else
    List.find_map
      (fun (g : Ir.ginst) ->
        match g.Ir.i with
        | Ir.Sread { stream; _ } -> Some (stream, `Read)
        | Ir.Swrite { stream; _ } -> Some (stream, `Write)
        | _ -> None)
      f.Fsmd.states.(state).Fsmd.ops

let describe_blocked (fsmds : Fsmd.t list) (blocked : (string * int) list) : string list =
  List.map
    (fun (proc, state) ->
      let fallback = Printf.sprintf "%s blocked in state %d" proc state in
      match List.find_opt (fun (f : Fsmd.t) -> f.Fsmd.proc.Ir.name = proc) fsmds with
      | None -> fallback
      | Some f -> (
          match blocked_channel f state with
          | Some (s, `Read) ->
              Printf.sprintf "%s blocked reading stream \"%s\" (state %d)" proc s state
          | Some (s, `Write) ->
              Printf.sprintf "%s blocked writing stream \"%s\" (state %d)" proc s state
          | None -> fallback))
    blocked

(* Allocate the pipe-stats table once; [run] after a {!restore} (or a
   second [run_until] leg) must keep the restored contents. *)
let ensure_pipe_stats t =
  if Array.length t.pipe_stats <> t.prog.total_pipes then
    t.pipe_stats <-
      Array.make t.prog.total_pipes
        { ps_proc = ""; ii_static = 0; depth_static = 0; issues = 0; ii_measured = 0.0;
          latency_measured = 0 }

(* Deliver due extcall results of a sequential process. *)
let deliver_ext t (p : proc) =
  p.ext_pending <-
    List.filter
      (fun (r, v, due) ->
        if due <= t.cycle then begin
          let v' = Value.wrap_ty p.pp.reg_ty.(r) v in
          if not (Int64.equal p.regs.(r) v') then t.progressed <- true;
          p.regs.(r) <- v';
          false
        end
        else true)
      p.ext_pending

(* 3. checker failure words whose latency elapsed *)
let deliver_failures t =
  let due, later = List.partition (fun (d, _, _) -> d <= t.cycle) t.pending_failures in
  t.pending_failures <- later;
  List.iter
    (fun (_, channel, word) ->
      let f = fifo_named t channel in
      if Fifo.can_push f then begin
        Fifo.push f word;
        t.activity <- true;
        t.progressed <- true
      end
      else (* channel busy: retry next cycle (round-robin backpressure) *)
        t.pending_failures <- (t.cycle + 1, channel, word) :: t.pending_failures)
    due

(* 3b. expired timing assertions *)
let expire_deadlines t (outcome : outcome option ref) =
  let expired, live = List.partition (fun (_, expiry) -> expiry <= t.cycle) t.deadlines in
  t.deadlines <- live;
  List.iter
    (fun ((tc : timing_check), _) ->
      t.timing_violations <- (tc.tc_name, t.cycle) :: t.timing_violations;
      if not tc.soft && !outcome = None then
        outcome :=
          Some
            (Aborted
               (Printf.sprintf
                  "timing assertion `%s' failed: tap %d not reached within %d cycles"
                  tc.tc_name tc.to_tap tc.budget)))
    expired

let sample_trace t =
  match t.tracer with
  | Some (tr, per_proc) ->
      Array.iteri
        (fun i (state_sig, reg_sigs) ->
          let p = t.procs.(i) in
          Trace.sample tr state_sig ~cycle:t.cycle (Int64.of_int p.state);
          List.iter (fun (r, s) -> Trace.sample tr s ~cycle:t.cycle p.regs.(r)) reg_sigs)
        per_proc
  | None -> ()

let run_handlers t (outcome : outcome option ref) =
  for h = 0 to Array.length t.handlers - 1 do
    let i, s, handler = t.handlers.(h) in
    let f = fifo t i s in
    while Fifo.can_pop f && !outcome = None do
      t.activity <- true;
      t.progressed <- true;
      match handler (Fifo.pop f) with
      | `Ok -> ()
      | `Abort msg ->
          t.host_log <- msg :: t.host_log;
          outcome := Some (Aborted msg)
    done
  done

let handler_data_pending t =
  t.cfg.host_poll_interval > 1
  && Array.exists (fun (i, s, _) -> Fifo.can_pop (fifo t i s)) t.handlers

let all_halted t = Array.for_all (fun p -> match p.mode with Halted -> true | _ -> false) t.procs

(* Execute one full clock cycle; sets [outcome] when the cycle decides
   the run.  The cycle counter advances unconditionally at the end, so
   [result.cycles] counts executed cycles exactly. *)
let exec_cycle (t : t) (outcome : outcome option ref) =
  t.activity <- false;
  t.progressed <- false;
  let taps_before = t.tap_count in
  (* 1. testbench feeds: at most one value per stream per cycle *)
  for i = 0 to Array.length t.feeds - 1 do
    let fd = t.feeds.(i) in
    match fd.fd_left with
    | [] -> ()
    | v :: rest ->
        let f = fifo t fd.fd_fifo fd.fd_name in
        if Fifo.can_push f then begin
          Fifo.push f (wrap_stream t fd.fd_fifo v);
          fd.fd_left <- rest;
          t.activity <- true;
          t.progressed <- true
        end
  done;
  (* 2. hardware processes *)
  for i = 0 to Array.length t.procs - 1 do
    let p = t.procs.(i) in
    if p.ext_pending <> [] then deliver_ext t p;
    match p.mode with
    | Halted -> ()
    | Seq -> if step_seq t p then t.activity <- true
    | Pipe rt -> if step_pipe t p rt then t.activity <- true
  done;
  if t.pending_failures <> [] then deliver_failures t;
  if t.deadlines <> [] then expire_deadlines t outcome;
  (* 4. end of cycle: commit fifos and brams *)
  Array.iter Fifo.commit t.fifos;
  for i = 0 to Array.length t.procs - 1 do
    Array.iter Bram.commit t.procs.(i).brams
  done;
  (* 4b. waveform sampling *)
  sample_trace t;
  (* 5. CPU side: notification handlers (every poll interval, modelling
     streaming vs DMA-mailbox transports), then testbench drains *)
  if t.cycle mod Stdlib.max 1 t.cfg.host_poll_interval = 0 then run_handlers t outcome;
  for i = 0 to Array.length t.drains - 1 do
    let d = t.drains.(i) in
    let f = fifo t d.dr_fifo d.dr_name in
    while Fifo.can_pop f do
      t.activity <- true;
      t.progressed <- true;
      d.dr_acc <- Fifo.pop f :: d.dr_acc
    done
  done;
  (* 6. termination / hang detection *)
  if !outcome = None then begin
    let halted = all_halted t in
    let data_pending = handler_data_pending t in
    if halted && t.pending_failures = [] && not data_pending then outcome := Some Finished
    else if
      (not t.activity) && t.pending_failures = [] && t.deadlines = [] && not data_pending
    then
      (* outstanding timing assertions keep the clock running so a
         hang is reported as the timing failure it is *)
      outcome := Some (Hang (blocked_info t))
    else begin
      (* live-lock watchdog: the FSMs are busy (activity) but no
         architectural value has changed for a whole window — a spin
         that would otherwise only surface as Out_of_cycles after the
         full budget.  Outstanding deadlines keep it at bay so timing
         assertions report first. *)
      if t.progressed || t.tap_count > taps_before then t.last_progress <- t.cycle;
      match t.cfg.watchdog with
      | Some n when t.deadlines = [] && t.cycle - t.last_progress >= n ->
          outcome := Some (Livelock (blocked_info t))
      | _ -> ()
    end
  end;
  t.cycle <- t.cycle + 1

let run_loop t ~stop_at (outcome : outcome option ref) =
  try
    while !outcome = None && t.cycle < stop_at do
      if t.cycle >= t.cfg.max_cycles then outcome := Some Out_of_cycles
      else exec_cycle t outcome
    done
  with
  | Sim_failure msg -> outcome := Some (Sim_error msg)
  | Abort_sim msg -> outcome := Some (Aborted msg)

(** Run forward until the start of [cycle] (exclusive: cycles
    [0..cycle-1] have executed and committed).  Returns [Some outcome]
    if the design terminated first, [None] when paused at the target —
    the state is then exactly the start-of-cycle state a later {!run}
    continues from. *)
let run_until (t : t) ~cycle : outcome option =
  ensure_pipe_stats t;
  let outcome = ref None in
  run_loop t ~stop_at:cycle outcome;
  !outcome

let collect (t : t) (outcome : outcome) : result =
  let drained =
    Array.fold_left (fun l d -> (d.dr_name, List.rev d.dr_acc) :: l) [] t.drains
    |> List.sort compare
  in
  let bram_report count =
    List.concat_map
      (fun p ->
        List.filter_map
          (fun i ->
            let b = p.brams.(i) in
            if count b > 0 then Some (b.Bram.name, count b) else None)
          p.pp.mem_report_order)
      (Array.to_list t.procs)
  in
  let fifo_stats =
    Array.fold_left
      (fun acc (f : Fifo.t) ->
        (f.Fifo.name, f.Fifo.pushes, f.Fifo.pops, f.Fifo.max_occupancy) :: acc)
      [] t.fifos
    |> List.sort compare
  in
  {
    outcome;
    cycles = t.cycle;
    drained;
    host_log = List.rev t.host_log;
    pipes = Array.to_list t.pipe_stats;
    port_violations = bram_report (fun b -> b.Bram.port_violations);
    wild_accesses = bram_report (fun b -> b.Bram.wild_accesses);
    fifo_stats;
    tap_events = t.tap_count;
    timing_violations = List.rev t.timing_violations;
    vcd = (match t.tracer with Some (tr, _) -> Some (Trace.to_vcd tr) | None -> None);
  }

let run (t : t) : result =
  ensure_pipe_stats t;
  let outcome = ref None in
  run_loop t ~stop_at:max_int outcome;
  collect t (match !outcome with Some o -> o | None -> Finished)

let current_cycle t = t.cycle

(* --- Snapshots ----------------------------------------------------------------- *)

(* A deep, closure-free copy of all mutable engine state, suitable for
   Marshal (the campaign persists baseline snapshots in the artifact
   store).  Overlays are flattened to register-sorted assoc lists so
   equal states produce structurally equal snapshots; a live pipe is
   referenced by its index in the owning process's pipe table. *)
type iter_snap = {
  isn_snapshot : int64 array;
  isn_ctx : (Ir.reg * int64) list;
  isn_cyc : int;
  isn_issued_at : int;
  isn_pending : (Ir.reg * int64 * int) list;
}

type pipe_snap = {
  psn_pipe : int;  (** index into the process's [Fsmd.pipes] *)
  psn_countdown : int;
  psn_done_issuing : bool;
  psn_inflight : iter_snap list;  (** oldest first *)
  psn_issues : int;
  psn_first_issue : int;
  psn_last_issue : int;
  psn_max_latency : int;
  psn_final_writes : (Ir.reg * int64) list;
}

type mode_snap = Snap_seq | Snap_pipe of pipe_snap | Snap_halted

type proc_snap = {
  sp_regs : int64 array;
  sp_state : int;
  sp_mode : mode_snap;
  sp_brams : Bram.t array;  (** deep copies, in memory-index order *)
  sp_ext_pending : (Ir.reg * int64 * int) list;
  sp_entry_taps_fired : bool;
}

type snapshot = {
  sn_cycle : int;
  sn_activity : bool;
  sn_progressed : bool;
  sn_last_progress : int;
  sn_tap_count : int;
  sn_pending_failures : (int * string * int64) list;
  sn_host_log : string list;
  sn_fifos : Fifo.t array;  (** deep copies, in stream-index order *)
  sn_drained : (string * int64 list) list;  (** newest first, as stored *)
  sn_feeds_left : (string * int64 list) list;
  sn_procs : proc_snap array;  (** in [t.procs] order *)
  sn_pipe_stats : pipe_stats array;
  sn_deadlines : (timing_check * int) list;
  sn_timing_violations : (string * int) list;
}

let snapshot (t : t) : snapshot =
  let snap_iter (it : frame) =
    {
      isn_snapshot = Array.copy it.base;
      isn_ctx = bindings it;
      isn_cyc = it.cyc;
      isn_issued_at = it.issued_at;
      isn_pending = it.pending;
    }
  in
  let snap_proc (p : proc) =
    let sp_mode =
      match p.mode with
      | Seq -> Snap_seq
      | Halted -> Snap_halted
      | Pipe rt ->
          Snap_pipe
            {
              psn_pipe = rt.rp.pid;
              psn_countdown = rt.countdown;
              psn_done_issuing = rt.done_issuing;
              psn_inflight = List.init rt.count (fun k -> snap_iter rt.ring.(slot rt k));
              psn_issues = rt.issues;
              psn_first_issue = rt.first_issue;
              psn_last_issue = rt.last_issue;
              psn_max_latency = rt.max_latency;
              psn_final_writes = bindings rt.final_writes;
            }
    in
    {
      sp_regs = Array.copy p.regs;
      sp_state = p.state;
      sp_mode;
      sp_brams = Array.map Bram.copy p.brams;
      sp_ext_pending = p.ext_pending;
      sp_entry_taps_fired = p.entry_taps_fired;
    }
  in
  {
    sn_cycle = t.cycle;
    sn_activity = t.activity;
    sn_progressed = t.progressed;
    sn_last_progress = t.last_progress;
    sn_tap_count = t.tap_count;
    sn_pending_failures = t.pending_failures;
    sn_host_log = t.host_log;
    sn_fifos = Array.map Fifo.copy t.fifos;
    sn_drained =
      Array.fold_left (fun l d -> (d.dr_name, d.dr_acc) :: l) [] t.drains |> List.sort compare;
    sn_feeds_left =
      Array.fold_left (fun l fd -> (fd.fd_name, fd.fd_left) :: l) [] t.feeds
      |> List.sort compare;
    sn_procs = Array.map snap_proc t.procs;
    sn_pipe_stats = Array.copy t.pipe_stats;
    sn_deadlines = t.deadlines;
    sn_timing_violations = t.timing_violations;
  }

let restore_frame (fr : frame) bindings =
  clear fr;
  List.iter (fun (r, v) -> stage fr r v) bindings

(* Restoring never aliases snapshot-owned arrays, so one snapshot can
   seed any number of runs. *)
let restore (t : t) (s : snapshot) =
  let mismatch what = raise (Sim_failure ("snapshot restore: " ^ what ^ " mismatch")) in
  if Array.length t.procs <> Array.length s.sn_procs then mismatch "process count";
  if Array.length t.fifos <> Array.length s.sn_fifos then mismatch "stream table";
  t.cycle <- s.sn_cycle;
  t.activity <- s.sn_activity;
  t.progressed <- s.sn_progressed;
  t.last_progress <- s.sn_last_progress;
  t.tap_count <- s.sn_tap_count;
  t.pending_failures <- s.sn_pending_failures;
  t.host_log <- s.sn_host_log;
  Array.iteri (fun i saved -> Fifo.restore t.fifos.(i) ~saved) s.sn_fifos;
  List.iter
    (fun (n, l) ->
      match Array.find_opt (fun d -> d.dr_name = n) t.drains with
      | Some d -> d.dr_acc <- l
      | None -> t.drains <- Array.append t.drains [| make_drain t.prog n l |])
    s.sn_drained;
  t.feeds <- make_feeds t.prog s.sn_feeds_left;
  Array.iteri
    (fun i (sp : proc_snap) ->
      let p = t.procs.(i) in
      if Array.length p.regs <> Array.length sp.sp_regs then mismatch "register file";
      Array.blit sp.sp_regs 0 p.regs 0 (Array.length p.regs);
      p.state <- sp.sp_state;
      clear p.ov;
      (p.mode <-
         match sp.sp_mode with
         | Snap_seq -> Seq
         | Snap_halted -> Halted
         | Snap_pipe ps ->
             let rt = pipe_runtime p ps.psn_pipe in
             reset_rt rt;
             rt.countdown <- ps.psn_countdown;
             rt.done_issuing <- ps.psn_done_issuing;
             rt.issues <- ps.psn_issues;
             rt.first_issue <- ps.psn_first_issue;
             rt.last_issue <- ps.psn_last_issue;
             rt.max_latency <- ps.psn_max_latency;
             restore_frame rt.final_writes ps.psn_final_writes;
             List.iter
               (fun isn ->
                 let it = issue_slot p rt in
                 Array.blit isn.isn_snapshot 0 it.base 0 (Array.length it.base);
                 List.iter (fun (r, v) -> stage it r v) isn.isn_ctx;
                 it.cyc <- isn.isn_cyc;
                 it.issued_at <- isn.isn_issued_at;
                 it.pending <- isn.isn_pending)
               ps.psn_inflight;
             Pipe rt);
      Array.iteri (fun j saved -> Bram.restore p.brams.(j) ~saved) sp.sp_brams;
      p.ext_pending <- sp.sp_ext_pending;
      p.entry_taps_fired <- sp.sp_entry_taps_fired)
    s.sn_procs;
  t.pipe_stats <- Array.copy s.sn_pipe_stats;
  t.deadlines <- s.sn_deadlines;
  t.timing_violations <- s.sn_timing_violations

(* Patch named registers in place (same binding shape as [cfg.params]).
   Used to arm padded fault sites after a restore: the fault registers
   are never written by the program, but pipelined iterations in flight
   hold frozen register copies — patch those too. *)
let arm (t : t) (params : (string * (string * int64) list) list) =
  Array.iter
    (fun (p : proc) ->
      match List.assoc_opt p.pp.name params with
      | None -> ()
      | Some bindings ->
          List.iter
            (fun (r, (info : Ir.reg_info)) ->
              match info.Ir.origin with
              | Some name -> (
                  match List.assoc_opt name bindings with
                  | Some v ->
                      let v' = Value.wrap_ty info.Ir.rty v in
                      p.regs.(r) <- v';
                      (match p.mode with
                      | Pipe rt ->
                          for k = 0 to rt.count - 1 do
                            let it = rt.ring.(slot rt k) in
                            it.base.(r) <- v';
                            unstage it r
                          done
                      | _ -> ())
                  | None -> ())
              | None -> ())
            p.pp.fsmd.Fsmd.proc.Ir.regs)
    t.procs

(** Convenience: build and run in one call. *)
let simulate ?cfg ~streams ~fsmds ?(checkers = []) () =
  run (create ?cfg ~streams ~fsmds ~checkers ())
