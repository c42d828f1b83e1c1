(** Software simulation of an InCA program (the "CPU simulation" path).

    This is the analogue of Impulse-C's thread-based software simulation
    (paper, Section 1): every process — hardware-mapped or not — is
    interpreted with plain C semantics, *untimed*, with cooperatively
    scheduled fibers built on OCaml 5 effect handlers.  Differences
    between this path and the cycle-accurate circuit ({!Sim}) are exactly
    the discrepancies the paper's in-circuit assertions exist to catch.

    By default stream FIFOs are unbounded here (software simulation does
    not model backpressure), which is one documented source of
    "passes in simulation, hangs in hardware" behaviour. *)

open Front.Ast
module Loc = Front.Loc
module Value = Value

type failure = {
  floc : Loc.t;
  fproc : string;
  ftext : string;  (** source text of the failed condition *)
}

(** ANSI-C assert(3) message format. *)
let failure_message f =
  Printf.sprintf "%s:%d: %s: Assertion `%s' failed." f.floc.Loc.file f.floc.Loc.line
    f.fproc f.ftext

type outcome =
  | Completed                       (** every process ran to completion *)
  | Aborted of failure              (** first assertion failure halted the app *)
  | Deadlocked of (string * Loc.t) list  (** blocked processes and where *)
  | Fuel_exhausted                  (** step budget exceeded (runaway loop) *)
  | Runtime_error of string

type result = {
  outcome : outcome;
  failures : failure list;          (** all failures, in order (NABORT keeps going) *)
  drained : (string * int64 list) list;  (** collected stream outputs *)
  log : string list;                (** notification messages, ANSI format *)
}

(** One observation emitted during execution when an [observer] is
    installed — the raw material of trace-based invariant mining. *)
type obs_event =
  | Obs_scalar of { oproc : string; oloc : Loc.t; ovar : string; value : int64 }
  | Obs_loop of { oproc : string; oloc : Loc.t; iters : int }
  | Obs_stream of { oproc : string; stream : string; written : int64 }

type config = {
  params : (string * (string * int64) list) list;
      (** per-process scalar parameter bindings *)
  feeds : (string * int64 list) list;
      (** testbench values pre-loaded into streams *)
  drains : string list;             (** streams whose contents to collect *)
  nabort : bool;                    (** paper's NABORT: don't halt on failure *)
  ndebug : bool;                    (** paper's NDEBUG: disable all assertions *)
  unbounded_fifos : bool;
  extern_models : (string * (int64 list -> int64)) list;
      (** C models of external HDL functions *)
  max_steps : int;
  observer : (obs_event -> unit) option;
      (** trace hook: called synchronously for every observation *)
}

let default_config =
  {
    params = [];
    feeds = [];
    drains = [];
    nabort = false;
    ndebug = false;
    unbounded_fifos = true;
    extern_models = [];
    max_steps = 10_000_000;
    observer = None;
  }

exception Abort_all of failure
exception Runtime of string
exception Proc_return

(* --- Effects for blocking stream operations ---------------------------- *)

type _ Effect.t +=
  | Sread : string * string * Loc.t -> int64 Effect.t
  | Swrite : (string * int64 * string * Loc.t) -> unit Effect.t

(* --- Per-process environments ------------------------------------------ *)

(* Each cell carries its declared scalar/element type: stores
   canonicalize to it, exactly as a hardware register of that width
   would.  Ordinary assignments are already canonical (elaboration
   inserts casts), but a [stream_read] into a narrower or differently
   signed lvalue converts here — same as the circuit datapath. *)
type binding = Scalar of ty * int64 ref | Arr of ty * int64 array

type scope = (string, binding) Hashtbl.t

let new_scope () : scope = Hashtbl.create 8

let rec lookup scopes name =
  match scopes with
  | [] -> raise (Runtime (Printf.sprintf "unbound variable %s" name))
  | sc :: rest -> ( match Hashtbl.find_opt sc name with Some b -> b | None -> lookup rest name)

(* --- Expression evaluation (pure) -------------------------------------- *)

type rt = {
  cfg : config;
  mutable steps : int;
  mutable failures : failure list;
  mutable log : string list;
  mutable obs : (obs_event -> unit) option;
      (** active observer; cleared around for-header init/step execution
          so loop bookkeeping is not reported as an ordinary assignment *)
}

let check_fuel rt =
  rt.steps <- rt.steps + 1;
  if rt.steps > rt.cfg.max_steps then raise (Runtime "fuel exhausted")

let rec eval rt scopes (x : expr) : int64 =
  match x.e with
  | Int n -> Value.wrap_ty x.ety n
  | Bool b -> Value.of_bool b
  | Var name -> (
      match lookup scopes name with
      | Scalar (_, r) -> !r
      | Arr _ -> raise (Runtime (Printf.sprintf "array %s used as scalar" name)))
  | Index (name, idx) -> (
      match lookup scopes name with
      | Arr (_, a) ->
          let i = Int64.to_int (eval rt scopes idx) in
          if i < 0 || i >= Array.length a then
            raise
              (Runtime
                 (Printf.sprintf "%s: array index %d out of bounds for %s[%d]"
                    (Loc.to_string x.eloc) i name (Array.length a)))
          else a.(i)
      | Scalar _ -> raise (Runtime (Printf.sprintf "%s is not an array" name)))
  | Unop (op, a) -> Value.unop op a.ety (eval rt scopes a)
  | Binop (Land, a, b) ->
      (* short-circuit, as in C *)
      if Value.to_bool (eval rt scopes a) then eval rt scopes b else 0L
  | Binop (Lor, a, b) -> if Value.to_bool (eval rt scopes a) then 1L else eval rt scopes b
  | Binop (op, a, b) ->
      let va = eval rt scopes a and vb = eval rt scopes b in
      (try Value.binop op a.ety va vb
       with Value.Division_by_zero ->
         raise (Runtime (Printf.sprintf "%s: division by zero" (Loc.to_string x.eloc))))
  | Cast (ty, a) -> Value.cast ~from_ty:a.ety ~to_ty:ty (eval rt scopes a)
  | Call (f, args) -> (
      match List.assoc_opt f rt.cfg.extern_models with
      | Some model ->
          let vs = List.map (eval rt scopes) args in
          Value.wrap_ty x.ety (model vs)
      | None ->
          raise (Runtime (Printf.sprintf "no C model registered for extern %s" f)))

(* --- Statement execution ------------------------------------------------ *)

let assign rt scopes lv v =
  match lv with
  | Lvar name -> (
      match lookup scopes name with
      | Scalar (ty, r) -> r := Value.wrap_ty ty v
      | Arr _ -> raise (Runtime (Printf.sprintf "cannot assign to array %s" name)))
  | Lindex (name, idx) -> (
      match lookup scopes name with
      | Arr (ty, a) ->
          let i = Int64.to_int (eval rt scopes idx) in
          if i < 0 || i >= Array.length a then
            raise
              (Runtime
                 (Printf.sprintf "array index %d out of bounds for %s[%d]" i name
                    (Array.length a)))
          else a.(i) <- Value.wrap_ty ty v
      | Scalar _ -> raise (Runtime (Printf.sprintf "%s is not an array" name)))

let observe rt ev = match rt.obs with Some f -> f ev | None -> ()

(* Induction variable of a for-header, when it has the canonical shape. *)
let header_var (h : for_header) =
  match (h.init, h.step) with
  | Some { s = Assign (Lvar v, _); _ }, _
  | Some { s = Decl (_, v, _); _ }, _
  | None, Some { s = Assign (Lvar v, _); _ } -> Some v
  | _ -> None

let rec exec_stmts rt pname scopes stmts = List.iter (exec_stmt rt pname scopes) stmts

and exec_stmt rt pname scopes st =
  check_fuel rt;
  match st.s with
  | Decl (ty, name, init) -> (
      let top = match scopes with sc :: _ -> sc | [] -> assert false in
      match ty with
      | Tarray (elem, n) -> Hashtbl.replace top name (Arr (elem, Array.make n 0L))
      | _ ->
          let v = match init with Some e -> eval rt scopes e | None -> 0L in
          Hashtbl.replace top name (Scalar (ty, ref v));
          if init <> None then
            observe rt (Obs_scalar { oproc = pname; oloc = st.sloc; ovar = name; value = v }))
  | Assign (lv, e) ->
      let v = eval rt scopes e in
      assign rt scopes lv v;
      (match lv with
      | Lvar name ->
          observe rt (Obs_scalar { oproc = pname; oloc = st.sloc; ovar = name; value = v })
      | Lindex _ -> ())
  | If (c, t, f) ->
      let branch = if Value.to_bool (eval rt scopes c) then t else f in
      exec_stmts rt pname (new_scope () :: scopes) branch
  | While (c, b) ->
      let iters = ref 0 in
      while Value.to_bool (eval rt scopes c) do
        check_fuel rt;
        incr iters;
        exec_stmts rt pname (new_scope () :: scopes) b
      done;
      observe rt (Obs_loop { oproc = pname; oloc = st.sloc; iters = !iters })
  | For (h, b) ->
      let scopes' = new_scope () :: scopes in
      (* header init/step run unobserved: the induction variable is
         reported once per iteration below, anchored at the loop itself,
         so mined invariants can be injected at the top of the body *)
      let unobserved s =
        let saved = rt.obs in
        rt.obs <- None;
        Fun.protect ~finally:(fun () -> rt.obs <- saved) (fun () ->
            exec_stmt rt pname scopes' s)
      in
      (match h.init with Some s -> unobserved s | None -> ());
      let ivar = header_var h in
      let iters = ref 0 in
      while Value.to_bool (eval rt scopes' h.cond) do
        check_fuel rt;
        incr iters;
        (match ivar with
        | Some v -> (
            match (try Some (lookup scopes' v) with Runtime _ -> None) with
            | Some (Scalar (_, r)) ->
                observe rt
                  (Obs_scalar { oproc = pname; oloc = st.sloc; ovar = v; value = !r })
            | Some (Arr _) | None -> ())
        | None -> ());
        exec_stmts rt pname (new_scope () :: scopes') b;
        match h.step with Some s -> unobserved s | None -> ()
      done;
      observe rt (Obs_loop { oproc = pname; oloc = st.sloc; iters = !iters })
  | Assert (c, txt) ->
      if not rt.cfg.ndebug then
        if not (Value.to_bool (eval rt scopes c)) then begin
          let f = { floc = st.sloc; fproc = pname; ftext = txt } in
          rt.failures <- f :: rt.failures;
          rt.log <- failure_message f :: rt.log;
          if not rt.cfg.nabort then raise (Abort_all f)
        end
  | Stream_read (lv, s) ->
      let v = Effect.perform (Sread (s, pname, st.sloc)) in
      assign rt scopes lv v;
      (match lv with
      | Lvar name ->
          observe rt (Obs_scalar { oproc = pname; oloc = st.sloc; ovar = name; value = v })
      | Lindex _ -> ())
  | Stream_write (s, e) ->
      let v = eval rt scopes e in
      observe rt (Obs_stream { oproc = pname; stream = s; written = v });
      Effect.perform (Swrite (s, v, pname, st.sloc))
  | Return _ -> raise Proc_return
  | Block b -> exec_stmts rt pname (new_scope () :: scopes) b
  | Tapstmt (_, args) ->
      (* data extraction is a hardware artifact; evaluate (for effects on
         fuel accounting only) and discard *)
      List.iter (fun a -> ignore (eval rt scopes a)) args
  | Const_array (elem, name, values) ->
      let top = match scopes with sc :: _ -> sc | [] -> assert false in
      Hashtbl.replace top name
        (Arr (elem, Array.of_list (List.map (Value.wrap_ty elem) values)))

(* --- Cooperative scheduler over effect handlers ------------------------- *)

type fifo = { q : int64 Queue.t; capacity : int }

type blocked =
  | Bread of string * string * Loc.t * (int64, unit) Effect.Deep.continuation
  | Bwrite of string * int64 * string * Loc.t * (unit, unit) Effect.Deep.continuation

(** Run [prog] under [cfg].  Deterministic: processes are scheduled
    round-robin in declaration order. *)
let run ?(cfg = default_config) (prog : program) : result =
  let fifos = Hashtbl.create 8 in
  List.iter
    (fun (s : stream_decl) ->
      let capacity = if cfg.unbounded_fifos then max_int else s.depth in
      Hashtbl.replace fifos s.sname { q = Queue.create (); capacity })
    prog.streams;
  List.iter
    (fun (sname, vs) ->
      match Hashtbl.find_opt fifos sname with
      | Some f ->
          let elem =
            match find_stream prog sname with Some s -> s.elem | None -> int32_t
          in
          List.iter (fun v -> Queue.add (Value.wrap_ty elem v) f.q) vs
      | None -> invalid_arg (Printf.sprintf "feed: unknown stream %s" sname))
    cfg.feeds;
  let rt = { cfg; steps = 0; failures = []; log = []; obs = cfg.observer } in
  let runnable : (unit -> unit) Queue.t = Queue.create () in
  let blocked : blocked list ref = ref [] in
  let abort : failure option ref = ref None in
  let error : string option ref = ref None in
  let stream_elem sname =
    match find_stream prog sname with Some s -> s.elem | None -> int32_t
  in
  let handler pname body =
    let open Effect.Deep in
    match_with body ()
      {
        retc = (fun () -> ());
        exnc =
          (fun e ->
            match e with
            | Proc_return -> ()
            | Abort_all f -> abort := Some f
            | Runtime msg -> error := Some (Printf.sprintf "%s: %s" pname msg)
            | e -> raise e);
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Sread (s, p, loc) ->
                Some
                  (fun (k : (a, unit) continuation) ->
                    match Hashtbl.find_opt fifos s with
                    | Some f when not (Queue.is_empty f.q) ->
                        continue k (Queue.pop f.q)
                    | Some _ -> blocked := Bread (s, p, loc, k) :: !blocked
                    | None -> error := Some (Printf.sprintf "unknown stream %s" s))
            | Swrite (s, v, p, loc) ->
                Some
                  (fun (k : (a, unit) continuation) ->
                    match Hashtbl.find_opt fifos s with
                    | Some f when Queue.length f.q < f.capacity ->
                        Queue.add (Value.wrap_ty (stream_elem s) v) f.q;
                        continue k ()
                    | Some _ -> blocked := Bwrite (s, v, p, loc, k) :: !blocked
                    | None -> error := Some (Printf.sprintf "unknown stream %s" s))
            | _ -> None);
      }
  in
  (* Launch a fiber per process. *)
  List.iter
    (fun (p : proc) ->
      let body () =
        let top = new_scope () in
        let bindings = try List.assoc p.pname cfg.params with Not_found -> [] in
        List.iter
          (fun (name, ty) ->
            let v = try List.assoc name bindings with Not_found -> 0L in
            Hashtbl.replace top name (Scalar (ty, ref (Value.wrap_ty ty v))))
          p.params;
        exec_stmts rt p.pname [ top ] p.body
      in
      Queue.add (fun () -> handler p.pname body) runnable)
    prog.procs;
  (* Scheduler: run fibers; after each, try to unblock waiters. *)
  let progress = ref true in
  let give_up = ref false in
  while
    (not (Queue.is_empty runnable && not !progress))
    && !abort = None && !error = None && not !give_up
  do
    if Queue.is_empty runnable then begin
      (* try to resume blocked fibers *)
      let still = ref [] in
      let resumed = ref false in
      List.iter
        (fun b ->
          if !resumed || !abort <> None || !error <> None then still := b :: !still
          else
            match b with
            | Bread (s, p, loc, k) -> (
                match Hashtbl.find_opt fifos s with
                | Some f when not (Queue.is_empty f.q) ->
                    resumed := true;
                    let v = Queue.pop f.q in
                    Queue.add (fun () -> handler p (fun () -> Effect.Deep.continue k v)) runnable
                | _ -> still := Bread (s, p, loc, k) :: !still)
            | Bwrite (s, v, p, loc, k) -> (
                match Hashtbl.find_opt fifos s with
                | Some f when Queue.length f.q < f.capacity ->
                    resumed := true;
                    Queue.add (Value.wrap_ty (stream_elem s) v) f.q;
                    Queue.add (fun () -> handler p (fun () -> Effect.Deep.continue k ())) runnable
                | _ -> still := Bwrite (s, v, p, loc, k) :: !still))
        (List.rev !blocked);
      blocked := !still;
      if not !resumed then begin
        progress := false;
        if !blocked <> [] then give_up := true
      end
    end
    else begin
      let fiber = Queue.pop runnable in
      (try fiber () with Runtime msg -> error := Some msg);
      progress := true
    end
  done;
  let drained =
    List.map
      (fun s ->
        match Hashtbl.find_opt fifos s with
        | Some f -> (s, List.of_seq (Queue.to_seq f.q))
        | None -> (s, []))
      cfg.drains
  in
  let outcome =
    match (!abort, !error) with
    | Some f, _ -> Aborted f
    | None, Some msg when msg = "fuel exhausted" || Filename.check_suffix msg "fuel exhausted" ->
        Fuel_exhausted
    | None, Some msg -> Runtime_error msg
    | None, None ->
        if !blocked <> [] then
          Deadlocked
            (List.map
               (function
                 | Bread (_, p, loc, _) -> (p, loc)
                 | Bwrite (_, _, p, loc, _) -> (p, loc))
               !blocked)
        else Completed
  in
  { outcome; failures = List.rev rt.failures; drained; log = List.rev rt.log }

(** True when the run finished with no assertion failure and no error. *)
let ok r = r.outcome = Completed && r.failures = []
