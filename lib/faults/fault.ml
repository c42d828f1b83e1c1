(** Fault injection: reproduce the hardware-translation bugs of the
    paper's Section 5.1 as IR-to-IR rewrites applied between lowering
    and scheduling.

    The software-simulation path ({!Interp}) interprets the *source*, so
    it never sees these faults — recreating the paper's headline
    scenario: assertions pass in software simulation and fail (or expose
    a hang) only in circuit.

    - {!narrow_compare} reproduces the erroneous narrow comparison of
      Figure 3: Impulse-C compiled a 64-bit comparison of two counters
      as a 5-bit comparison, turning [4294967286 > 4294967296] (false)
      into [22 > 0] (true).
    - {!read_for_write} reproduces the Triple-DES hang: a memory write
      is translated as a read, so a flag never lands in block RAM and a
      dependent loop spins forever in hardware. *)

module Ir = Mir.Ir
open Front.Ast

type selector = All | Nth of int  (** which matching site to corrupt (0-based) *)

type t =
  | Narrow_compare of { fproc : string; select : selector; mask_bits : int }
  | Read_for_write of { fproc : string; select : selector }
  | Stuck_stream_bit of { fproc : string; stream : string; select : selector; bit : int; stuck_to : bool }
  | Drop_stream_write of { fproc : string; stream : string; select : selector }
  | Loop_bound_off_by_one of { fproc : string; select : selector; delta : int64 }

(** Human-readable fault-kind name (campaign report rows). *)
let kind_name = function
  | Narrow_compare _ -> "narrow-compare"
  | Read_for_write _ -> "read-for-write"
  | Stuck_stream_bit _ -> "stuck-stream-bit"
  | Drop_stream_write _ -> "drop-stream-write"
  | Loop_bound_off_by_one _ -> "loop-off-by-one"

let describe = function
  | Narrow_compare { fproc; select; mask_bits } ->
      Printf.sprintf "narrow-compare(%s%s, %d bits)" fproc
        (match select with All -> "" | Nth k -> Printf.sprintf "#%d" k)
        mask_bits
  | Read_for_write { fproc; select } ->
      Printf.sprintf "read-for-write(%s%s)" fproc
        (match select with All -> "" | Nth k -> Printf.sprintf "#%d" k)
  | Stuck_stream_bit { fproc; stream; select; bit; stuck_to } ->
      Printf.sprintf "stuck-bit(%s.%s%s, bit %d = %d)" fproc stream
        (match select with All -> "" | Nth k -> Printf.sprintf "#%d" k)
        bit
        (if stuck_to then 1 else 0)
  | Drop_stream_write { fproc; stream; select } ->
      Printf.sprintf "drop-write(%s.%s%s)" fproc stream
        (match select with All -> "" | Nth k -> Printf.sprintf "#%d" k)
  | Loop_bound_off_by_one { fproc; select; delta } ->
      Printf.sprintf "loop-off-by-one(%s%s, %+Ld)" fproc
        (match select with All -> "" | Nth k -> Printf.sprintf "#%d" k)
        delta

(* Rewrite instruction streams with a stateful site counter and a fresh
   register allocator. *)
type rewriter = {
  mutable counter : int;
  mutable next_reg : int;
  mutable new_regs : (Ir.reg * Ir.reg_info) list;
  select : selector;
}

let selected rw =
  let n = rw.counter in
  rw.counter <- n + 1;
  match rw.select with All -> true | Nth k -> n = k

let fresh rw rty =
  let r = rw.next_reg in
  rw.next_reg <- r + 1;
  rw.new_regs <- (r, { Ir.rty; origin = None }) :: rw.new_regs;
  r

let rec map_segments f (body : Ir.body) : Ir.body =
  List.map
    (function
      | Ir.Straight insts -> Ir.Straight (f insts)
      | Ir.If_else r ->
          Ir.If_else
            {
              r with
              cond_insts = f r.cond_insts;
              then_ = map_segments f r.then_;
              else_ = map_segments f r.else_;
            }
      | Ir.Loop r ->
          Ir.Loop
            {
              r with
              cond_insts = f r.cond_insts;
              body = map_segments f r.body;
              step_insts = f r.step_insts;
            })
    body

let apply_to_proc (p : Ir.proc_ir) rewrite : Ir.proc_ir =
  let next_reg = List.fold_left (fun acc (r, _) -> Stdlib.max acc (r + 1)) 0 p.Ir.regs in
  let rw = { counter = 0; next_reg; new_regs = []; select = All } in
  let rw, f = rewrite rw in
  let body = map_segments f p.Ir.body in
  { p with Ir.body; regs = p.Ir.regs @ List.rev rw.new_regs }

let is_wide_compare (i : Ir.inst) =
  match i with
  | Ir.Bin { op = (Lt | Le | Gt | Ge); ty = Tint (_, W64); _ } -> true
  | _ -> false

(* 4294967286 & 31 = 22 and 4294967296 & 31 = 0: the Figure 3 numbers. *)
let narrow_compare_proc ~select ~mask_bits (p : Ir.proc_ir) : Ir.proc_ir =
  apply_to_proc p (fun rw ->
      let rw = { rw with select } in
      let mask = Int64.sub (Int64.shift_left 1L mask_bits) 1L in
      let narrow_ty = Tint (Unsigned, W64) in
      let f insts =
        List.concat_map
          (fun (g : Ir.ginst) ->
            match g.Ir.i with
            | Ir.Bin { dst; op; a; b; ty = _ } when is_wide_compare g.Ir.i && selected rw ->
                let ta = fresh rw narrow_ty and tb = fresh rw narrow_ty in
                [
                  { g with Ir.i = Ir.Bin { dst = ta; op = Band; a; b = Ir.Imm mask; ty = narrow_ty } };
                  { g with Ir.i = Ir.Bin { dst = tb; op = Band; a = b; b = Ir.Imm mask; ty = narrow_ty } };
                  { g with Ir.i = Ir.Bin { dst; op; a = Ir.Reg ta; b = Ir.Reg tb; ty = narrow_ty } };
                ]
            | _ -> [ g ])
          insts
      in
      (rw, f))

(* Stores into replica memories (Section 3.2 mirrors) are assertion
   plumbing added by the optimizer, not application stores: skip them
   without counting so [Nth k] names the same application store under
   every synthesis strategy. *)
let is_app_store p mem =
  match Ir.find_mem p mem with
  | Some m -> m.Ir.mirror_of = None
  | None -> true

let read_for_write_proc ~select (p : Ir.proc_ir) : Ir.proc_ir =
  apply_to_proc p (fun rw ->
      let rw = { rw with select } in
      let f insts =
        List.map
          (fun (g : Ir.ginst) ->
            match g.Ir.i with
            | Ir.Store { mem; addr; v = _ } when is_app_store p mem && selected rw ->
                let dst =
                  let elem =
                    match Ir.find_mem p mem with Some m -> m.Ir.elem | None -> int32_t
                  in
                  fresh rw elem
                in
                { g with Ir.i = Ir.Load { dst; mem; addr } }
            | _ -> g)
          insts
      in
      (rw, f))

(* A stream-write datapath bit wired to a constant: the written value
   passes through an OR (stuck at 1) or AND (stuck at 0) with a one-hot
   mask — the classic routing/synthesis fault a software model of the
   same C never exhibits. *)
let stuck_stream_bit_proc ~stream ~select ~bit ~stuck_to ~elem (p : Ir.proc_ir) :
    Ir.proc_ir =
  apply_to_proc p (fun rw ->
      let rw = { rw with select } in
      let one_hot = Int64.shift_left 1L bit in
      let f insts =
        List.concat_map
          (fun (g : Ir.ginst) ->
            match g.Ir.i with
            | Ir.Swrite { stream = s; v } when s = stream && selected rw ->
                let tv = fresh rw elem in
                let op, mask =
                  if stuck_to then (Bor, one_hot) else (Band, Int64.lognot one_hot)
                in
                [
                  { g with Ir.i = Ir.Bin { dst = tv; op; a = v; b = Ir.Imm mask; ty = elem } };
                  { g with Ir.i = Ir.Swrite { stream = s; v = Ir.Reg tv } };
                ]
            | _ -> [ g ])
          insts
      in
      (rw, f))

(* A dropped stream write: the FIFO write-enable never asserts (the
   handshake still advances), modelled by guarding the push on a fresh
   register that is never written and therefore stays 0. *)
let drop_stream_write_proc ~stream ~select (p : Ir.proc_ir) : Ir.proc_ir =
  apply_to_proc p (fun rw ->
      let rw = { rw with select } in
      let f insts =
        List.map
          (fun (g : Ir.ginst) ->
            match g.Ir.i with
            | Ir.Swrite { stream = s; v = _ } when s = stream && selected rw ->
                let never = fresh rw Tbool in
                { g with Ir.guard = Some (never, true) }
            | _ -> g)
          insts
      in
      (rw, f))

(* Pre-order traversal over loop nodes, rewriting each loop's condition
   instructions; shared counting order with {!sites} so [Nth k] names
   the same loop in both. *)
let rec map_loop_conds f (body : Ir.body) : Ir.body =
  List.map
    (function
      | Ir.Straight _ as it -> it
      | Ir.If_else r ->
          Ir.If_else
            { r with then_ = map_loop_conds f r.then_; else_ = map_loop_conds f r.else_ }
      | Ir.Loop r ->
          let cond_insts = f r.cond r.cond_insts in
          Ir.Loop { r with cond_insts; body = map_loop_conds f r.body })
    body

(* A mistranslated loop bound: the trip-count comparison sees a bound
   off by [delta] (one extra or one missing iteration in hardware). *)
let loop_bound_off_by_one_proc ~select ~delta (p : Ir.proc_ir) : Ir.proc_ir =
  let next_reg = List.fold_left (fun acc (r, _) -> Stdlib.max acc (r + 1)) 0 p.Ir.regs in
  let rw = { counter = 0; next_reg; new_regs = []; select } in
  let f cond cond_insts =
    if not (selected rw) then cond_insts
    else
      let rewritten = ref false in
      List.concat_map
        (fun (g : Ir.ginst) ->
          match g.Ir.i with
          | Ir.Bin { dst; op = (Lt | Le | Gt | Ge) as op; a; b; ty }
            when (not !rewritten) && dst = cond ->
              rewritten := true;
              let pre, b' =
                match b with
                | Ir.Imm n -> ([], Ir.Imm (Int64.add n delta))
                | Ir.Reg r ->
                    let tb = fresh rw ty in
                    ( [ { g with
                          Ir.i = Ir.Bin { dst = tb; op = Add; a = Ir.Reg r; b = Ir.Imm delta; ty } } ],
                      Ir.Reg tb )
              in
              pre @ [ { g with Ir.i = Ir.Bin { dst; op; a; b = b'; ty } } ]
          | _ -> [ g ])
        cond_insts
  in
  let body = map_loop_conds f p.Ir.body in
  { p with Ir.body; regs = p.Ir.regs @ List.rev rw.new_regs }

(** Apply one fault to a whole program IR. *)
let apply (fault : t) (prog : Ir.program_ir) : Ir.program_ir =
  let on_proc name f =
    {
      prog with
      Ir.procs =
        List.map (fun (p : Ir.proc_ir) -> if p.Ir.name = name then f p else p) prog.Ir.procs;
    }
  in
  match fault with
  | Narrow_compare { fproc; select; mask_bits } ->
      on_proc fproc (narrow_compare_proc ~select ~mask_bits)
  | Read_for_write { fproc; select } -> on_proc fproc (read_for_write_proc ~select)
  | Stuck_stream_bit { fproc; stream; select; bit; stuck_to } ->
      let elem =
        match List.find_opt (fun (d : stream_decl) -> d.sname = stream) prog.Ir.streams with
        | Some d -> d.elem
        | None -> int32_t
      in
      on_proc fproc (stuck_stream_bit_proc ~stream ~select ~bit ~stuck_to ~elem)
  | Drop_stream_write { fproc; stream; select } ->
      on_proc fproc (drop_stream_write_proc ~stream ~select)
  | Loop_bound_off_by_one { fproc; select; delta } ->
      on_proc fproc (loop_bound_off_by_one_proc ~select ~delta)

let apply_all faults prog = List.fold_left (fun p f -> apply f p) prog faults

(* Counting helpers reuse the exact rewrite traversals, so a site index
   found here is the same [Nth k] the rewriters select. *)
let count_matches (p : Ir.proc_ir) matches =
  let n = ref 0 in
  let f insts =
    List.iter (fun (g : Ir.ginst) -> if matches g then incr n) insts;
    insts
  in
  ignore (map_segments f p.Ir.body);
  !n

let rewriteable_loop_indices (p : Ir.proc_ir) =
  let acc = ref [] and n = ref 0 in
  let f cond cond_insts =
    let k = !n in
    incr n;
    if
      List.exists
        (fun (g : Ir.ginst) ->
          match g.Ir.i with
          | Ir.Bin { dst; op = Lt | Le | Gt | Ge; _ } -> dst = cond
          | _ -> false)
        cond_insts
    then acc := k :: !acc;
    cond_insts
  in
  ignore (map_loop_conds f p.Ir.body);
  List.rev !acc

let range n = List.init n (fun k -> k)

(** Enumerate every candidate fault site of a lowered program as a list
    of concrete single-site faults ([Nth]-selected), one per matching
    instruction or loop, across all hardware processes.

    Enumerate against the {e baseline}-strategy IR: the counting rules
    above (application stores only, per-stream anchoring, loops-only
    pre-order) keep each ordinal naming the same source construct under
    the instrumented strategies, so one site list drives the whole
    campaign. *)
let sites (prog : Ir.program_ir) : t list =
  let stream_width s =
    match List.find_opt (fun (d : stream_decl) -> d.sname = s) prog.Ir.streams with
    | Some { elem = Tint (_, w); _ } -> bits_of_width w
    | Some { elem = Tbool; _ } -> 1
    | Some _ | None -> 32
  in
  List.concat_map
    (fun (p : Ir.proc_ir) ->
      if p.Ir.kind <> Hardware then []
      else
        let fproc = p.Ir.name in
        let compares =
          count_matches p (fun g -> is_wide_compare g.Ir.i)
        in
        let app_stores =
          count_matches p (fun g ->
              match g.Ir.i with
              | Ir.Store { mem; _ } -> is_app_store p mem
              | _ -> false)
        in
        let narrow =
          List.map
            (fun k -> Narrow_compare { fproc; select = Nth k; mask_bits = 5 })
            (range compares)
        in
        let rfw =
          List.map (fun k -> Read_for_write { fproc; select = Nth k }) (range app_stores)
        in
        let stream_faults =
          List.concat_map
            (fun (d : stream_decl) ->
              let writes =
                count_matches p (fun g ->
                    match g.Ir.i with
                    | Ir.Swrite { stream; _ } -> stream = d.sname
                    | _ -> false)
              in
              List.concat_map
                (fun k ->
                  (* a mid-range bit stuck at 1 (corrupts any plausible
                     payload) and a low bit stuck at 0: the two stuck-at
                     polarities fail differently downstream *)
                  let bit = Stdlib.max 1 (stream_width d.sname / 2) - 1 in
                  [
                    Stuck_stream_bit
                      { fproc; stream = d.sname; select = Nth k; bit; stuck_to = true };
                    Stuck_stream_bit
                      { fproc; stream = d.sname; select = Nth k; bit = 0; stuck_to = false };
                    Drop_stream_write { fproc; stream = d.sname; select = Nth k };
                  ])
                (range writes))
            prog.Ir.streams
        in
        let loops =
          List.concat_map
            (fun k ->
              (* one extra and one missing iteration are distinct bugs:
                 the former over-reads (often a hang), the latter
                 silently truncates *)
              [
                Loop_bound_off_by_one { fproc; select = Nth k; delta = 1L };
                Loop_bound_off_by_one { fproc; select = Nth k; delta = -1L };
              ])
            (rewriteable_loop_indices p)
        in
        narrow @ rfw @ stream_faults @ loops)
    prog.Ir.procs

(* --- Padded instrumentation (split-stream evaluation) ---------------------- *)

(* For fork-point mutant evaluation the campaign compiles ONE design per
   (workload, strategy) with every fault site padded simultaneously,
   instead of one design per mutant.  Each pad is parameterized by fresh
   origin-named registers the program never writes; with all parameters
   at their reset value 0 every pad is an arithmetic identity, so the
   padded design behaves exactly like the original — and arming a single
   site (patching its registers) reproduces the corresponding legacy
   rewrite's semantics.  A marker tap (id [marker_base] + site index)
   at the head of each site's straight-line segment reports
   first-activation cycles through {!Sim.Engine}'s [on_site] hook. *)

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
  ip_prog : Ir.program_ir;  (** the padded program (all pads neutral) *)
  ip_sites : site list;     (** in {!sites} enumeration order *)
}

let default_marker_base = 1_000_000

let instrument_all ?(marker_base = default_marker_base) (prog : Ir.program_ir) :
    instrumented =
  let gidx = ref 0 in
  let sites_acc = ref [] in
  let stream_width s =
    match List.find_opt (fun (d : stream_decl) -> d.sname = s) prog.Ir.streams with
    | Some { elem = Tint (_, w); _ } -> bits_of_width w
    | Some { elem = Tbool; _ } -> 1
    | Some _ | None -> 32
  in
  let stream_elem s =
    match List.find_opt (fun (d : stream_decl) -> d.sname = s) prog.Ir.streams with
    | Some d -> d.elem
    | None -> int32_t
  in
  let procs =
    List.map
      (fun (p : Ir.proc_ir) ->
        if p.Ir.kind <> Hardware then p
        else begin
          let fproc = p.Ir.name in
          let next_reg =
            ref (List.fold_left (fun acc (r, _) -> Stdlib.max acc (r + 1)) 0 p.Ir.regs)
          in
          let new_regs = ref [] in
          let fresh ?origin rty =
            let r = !next_reg in
            incr next_reg;
            new_regs := (r, { Ir.rty; origin }) :: !new_regs;
            r
          in
          let add_site fault arm padded =
            let i = !gidx in
            incr gidx;
            sites_acc :=
              { s_index = i; s_fault = fault; s_proc = fproc; s_arm = arm;
                s_padded = padded }
              :: !sites_acc;
            i
          in
          let marker (g : Ir.ginst) idx =
            { g with Ir.i = Ir.Tap { id = marker_base + idx; args = [] } }
          in
          (* 1. narrow compares: dst = (a & ~fm) `op` (b & ~fm); fm = 0
             leaves both operands intact, fm = ~mask reproduces the
             mask_bits-bit comparison of Figure 3 (masked operands are
             non-negative, so the original signedness is equivalent to
             the legacy unsigned compare). *)
          let nc = ref 0 in
          let body =
            map_segments
              (fun insts ->
                List.concat_map
                  (fun (g : Ir.ginst) ->
                    match g.Ir.i with
                    | Ir.Bin { dst; op; a; b; ty } when is_wide_compare g.Ir.i ->
                        let k = !nc in
                        incr nc;
                        let mask_bits = 5 in
                        let fault = Narrow_compare { fproc; select = Nth k; mask_bits } in
                        let pname = Printf.sprintf "__fault_nc_%d" k in
                        let mask = Int64.sub (Int64.shift_left 1L mask_bits) 1L in
                        let idx = add_site fault [ (pname, Int64.lognot mask) ] true in
                        let fm = fresh ~origin:pname ty in
                        let m = fresh ty and ta = fresh ty and tb = fresh ty in
                        [
                          marker g idx;
                          { g with Ir.i = Ir.Un { dst = m; op = Bnot; a = Ir.Reg fm; ty } };
                          { g with Ir.i = Ir.Bin { dst = ta; op = Band; a; b = Ir.Reg m; ty } };
                          { g with Ir.i = Ir.Bin { dst = tb; op = Band; a = b; b = Ir.Reg m; ty } };
                          { g with Ir.i = Ir.Bin { dst; op; a = Ir.Reg ta; b = Ir.Reg tb; ty } };
                        ]
                    | _ -> [ g ])
                  insts)
              p.Ir.body
          in
          (* 2. read-for-write: the store and a shadow load guarded on a
             flag register; fw = 0 stores (original), fw = 1 loads only
             (the Triple-DES mistranslation). *)
          let rfw = ref 0 in
          let body =
            map_segments
              (fun insts ->
                List.concat_map
                  (fun (g : Ir.ginst) ->
                    match g.Ir.i with
                    | Ir.Store { mem; addr; v } when is_app_store p mem ->
                        let k = !rfw in
                        incr rfw;
                        let fault = Read_for_write { fproc; select = Nth k } in
                        if g.Ir.guard <> None then begin
                          ignore (add_site fault [] false);
                          [ g ]
                        end
                        else begin
                          let pname = Printf.sprintf "__fault_rfw_%d" k in
                          let idx = add_site fault [ (pname, 1L) ] true in
                          let fw = fresh ~origin:pname Tbool in
                          let elem =
                            match Ir.find_mem p mem with
                            | Some m -> m.Ir.elem
                            | None -> int32_t
                          in
                          let dead = fresh elem in
                          [
                            marker g idx;
                            { Ir.i = Ir.Store { mem; addr; v }; guard = Some (fw, false) };
                            { Ir.i = Ir.Load { dst = dead; mem; addr }; guard = Some (fw, true) };
                          ]
                        end
                    | _ -> [ g ])
                  insts)
              body
          in
          (* 3. stream writes: one pad group {or-mask, and-mask, enable}
             per write serves all three faults of the occurrence
             (stuck-at-1, stuck-at-0, dropped write). *)
          let body =
            List.fold_left
              (fun body (d : stream_decl) ->
                let occ = ref 0 in
                map_segments
                  (fun insts ->
                    List.concat_map
                      (fun (g : Ir.ginst) ->
                        match g.Ir.i with
                        | Ir.Swrite { stream = s; v } when s = d.sname ->
                            let k = !occ in
                            incr occ;
                            let bit = Stdlib.max 1 (stream_width s / 2) - 1 in
                            let f1 =
                              Stuck_stream_bit
                                { fproc; stream = s; select = Nth k; bit; stuck_to = true }
                            and f0 =
                              Stuck_stream_bit
                                { fproc; stream = s; select = Nth k; bit = 0;
                                  stuck_to = false }
                            and fd = Drop_stream_write { fproc; stream = s; select = Nth k } in
                            if g.Ir.guard <> None then begin
                              ignore (add_site f1 [] false);
                              ignore (add_site f0 [] false);
                              ignore (add_site fd [] false);
                              [ g ]
                            end
                            else begin
                              let base = Printf.sprintf "__fault_sw_%s_%d" s k in
                              let n_or = base ^ "_or"
                              and n_and = base ^ "_and"
                              and n_en = base ^ "_en" in
                              let i1 =
                                add_site f1 [ (n_or, Int64.shift_left 1L bit) ] true
                              in
                              let i0 = add_site f0 [ (n_and, 1L) ] true in
                              let id_ = add_site fd [ (n_en, 1L) ] true in
                              let elem = stream_elem s in
                              let om = fresh ~origin:n_or elem in
                              let am = fresh ~origin:n_and elem in
                              let en = fresh ~origin:n_en Tbool in
                              let t1 = fresh elem and m2 = fresh elem and t2 = fresh elem in
                              [
                                marker g i1;
                                marker g i0;
                                marker g id_;
                                { g with
                                  Ir.i = Ir.Bin { dst = t1; op = Bor; a = v; b = Ir.Reg om; ty = elem } };
                                { g with
                                  Ir.i = Ir.Un { dst = m2; op = Bnot; a = Ir.Reg am; ty = elem } };
                                { g with
                                  Ir.i =
                                    Ir.Bin
                                      { dst = t2; op = Band; a = Ir.Reg t1; b = Ir.Reg m2; ty = elem } };
                                { Ir.i = Ir.Swrite { stream = s; v = Ir.Reg t2 };
                                  guard = Some (en, false) };
                              ]
                            end
                        | _ -> [ g ])
                      insts)
                  body)
              body prog.Ir.streams
          in
          (* 4. loop bounds: the trip-count comparison reads bound + dr;
             dr = 0 is exact, ±1 reproduces the off-by-one translations.
             The adjusted bound is materialized even for immediate bounds
             so arming never changes the schedule. *)
          let loop = ref 0 in
          let body =
            map_loop_conds
              (fun cond cond_insts ->
                let k = !loop in
                incr loop;
                let rewritten = ref false in
                List.concat_map
                  (fun (g : Ir.ginst) ->
                    match g.Ir.i with
                    | Ir.Bin { dst; op = (Lt | Le | Gt | Ge) as op; a; b; ty }
                      when (not !rewritten) && dst = cond ->
                        rewritten := true;
                        let fplus = Loop_bound_off_by_one { fproc; select = Nth k; delta = 1L }
                        and fminus =
                          Loop_bound_off_by_one { fproc; select = Nth k; delta = -1L }
                        in
                        if g.Ir.guard <> None then begin
                          ignore (add_site fplus [] false);
                          ignore (add_site fminus [] false);
                          [ g ]
                        end
                        else begin
                          let pname = Printf.sprintf "__fault_loop_%d" k in
                          let ip = add_site fplus [ (pname, 1L) ] true in
                          let im = add_site fminus [ (pname, -1L) ] true in
                          let dr = fresh ~origin:pname ty in
                          let td = fresh ty in
                          [
                            marker g ip;
                            marker g im;
                            { g with
                              Ir.i = Ir.Bin { dst = td; op = Add; a = b; b = Ir.Reg dr; ty } };
                            { g with Ir.i = Ir.Bin { dst; op; a; b = Ir.Reg td; ty } };
                          ]
                        end
                    | _ -> [ g ])
                  cond_insts)
              body
          in
          (* 5. markers to the segment head: a site activates when
             control enters its straight-line segment.  The scheduler
             may place a marker in a later state than the pad
             arithmetic that follows it, so a marker left in place
             could fire after its pad already read the unarmed
             registers.  Only a site's own pad reads its arming
             registers, so arming at segment entry is always
             faithful. *)
          let is_marker (g : Ir.ginst) =
            match g.Ir.i with Ir.Tap { id; _ } -> id >= marker_base | _ -> false
          in
          let body =
            map_segments
              (fun insts ->
                let markers, rest = List.partition is_marker insts in
                markers @ rest)
              body
          in
          { p with Ir.body; regs = p.Ir.regs @ List.rev !new_regs }
        end)
      prog.Ir.procs
  in
  { ip_prog = { prog with Ir.procs }; ip_sites = List.rev !sites_acc }
