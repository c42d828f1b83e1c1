(* Workload [paper]: the designs behind the paper's Tables 1-4, Figures
   4/5 and Section 5.1 (what [bench table1..table4 figure4 figure5
   sec51] prints), compiled and simulated serially.  One item is one
   design point; its rendering (area, fmax, states, cycles) must equal
   the committed reference byte for byte.  Set-up generates and
   elaborates (parses and typechecks) the 17 source texts; a pass
   compiles and simulates. *)

module Driver = Core.Driver
module Engine = Sim.Engine
module Area = Rtl.Area

type counts = {
  mutable compiles : int;
  mutable cycles : int;
  mutable vhdl_bytes : int;
  mutable probe_mismatches : int;
}

let elab ~file src =
  Span.with_ "front.parse" (fun () -> Front.Typecheck.parse_and_check ~file src)

(* [Driver.compile] when untraced; traced, the same compile split into
   its [front] and [finish] halves, then the scheduler and the VHDL
   emitter replayed on the same design as probes.  The probed VHDL must
   equal the compiled design's. *)
let compile n ?faults strategy prog =
  n.compiles <- n.compiles + 1;
  if not !Span.enabled then Driver.compile ~strategy ?faults prog
  else begin
    let f = Span.with_ "core.front" (fun () -> Driver.front ~strategy prog) in
    let c = Span.with_ "core.finish" (fun () -> Driver.finish ?faults f) in
    let fsmds =
      Span.with_ "hls.schedule" (fun () ->
          List.map Hls.Schedule.compile_proc c.Driver.ir.Mir.Ir.procs)
    in
    let vhdl =
      Span.with_ "rtl.vhdl" (fun () ->
          Rtl.Vhdl.emit_design
            (fsmds @ List.map (fun (k : Core.Checker.t) -> k.Core.Checker.fsmd) c.Driver.checkers)
            c.Driver.instrumented.Front.Ast.streams)
    in
    if vhdl <> c.Driver.vhdl then n.probe_mismatches <- n.probe_mismatches + 1;
    n.vhdl_bytes <- n.vhdl_bytes + String.length vhdl;
    c
  end

let simulate n ?options c =
  let r = Span.with_ "sim.run" (fun () -> Driver.simulate ?options c) in
  n.cycles <- n.cycles + r.Driver.engine.Engine.cycles;
  r

let design (c : Driver.compiled) =
  let a = c.Driver.area in
  Printf.sprintf "states=%d logic=%d aluts=%d regs=%d ram=%d ic=%d streams=%d fmax=%.6f"
    (List.fold_left (fun acc f -> acc + Hls.Fsmd.num_states f) 0 c.Driver.fsmds)
    a.Area.logic a.Area.aluts a.Area.registers a.Area.ram_bits a.Area.interconnect
    a.Area.streams c.Driver.timing.Rtl.Timing.fmax_mhz

let outcome_name = function
  | Engine.Finished -> "finished"
  | Engine.Hang _ -> "hang"
  | Engine.Livelock _ -> "livelock"
  | _ -> "other"

(* --- the design points ------------------------------------------------------ *)

let strategies =
  [ ("baseline", Driver.baseline); ("parallelized", Driver.parallelized);
    ("unoptimized", Driver.unoptimized) ]

let table1 n prog (name, strategy) () =
  let c = compile n strategy prog in
  if name <> "parallelized" then design c
  else
    (* the Table 1 validation run: decrypt in circuit *)
    let text = "Table one validation run." in
    let cipher = Apps.Des_src.demo_ciphertext text in
    let r =
      simulate n
        ~options:
          { Driver.default_sim_options with
            Driver.feeds = [ ("cipher_in", cipher) ];
            drains = [ "plain_out" ];
            params = [ ("des3", [ ("nblocks", Int64.of_int (List.length cipher)) ]) ] }
        c
    in
    Printf.sprintf "%s cycles=%d decrypted=%b" (design c) r.Driver.engine.Engine.cycles
      (List.assoc_opt "plain_out" r.Driver.engine.Engine.drained
      = Some (Apps.Des_src.demo_plaintext_blocks text))

let table2 n prog (name, strategy) () =
  let c = compile n strategy prog in
  if name <> "parallelized" then design c
  else
    let w = Apps.Edge_src.default_width and h = 16 in
    let img = Apps.Edge_ref.test_image ~w ~h in
    let r =
      simulate n
        ~options:
          { Driver.default_sim_options with
            Driver.feeds = [ ("pixels_in", Apps.Edge_ref.to_stream img) ];
            drains = [ "pixels_out" ];
            params = [ ("edge", [ ("width", Int64.of_int w); ("height", Int64.of_int h) ]) ] }
        c
    in
    Printf.sprintf "%s cycles=%d filtered=%b" (design c) r.Driver.engine.Engine.cycles
      (List.assoc_opt "pixels_out" r.Driver.engine.Engine.drained
      = Some (Array.to_list (Array.map Int64.of_int (Apps.Edge_ref.filter ~w ~h img))))

(* Tables 3 and 4: a 64-value run of a micro kernel *)
let kernel n prog strategy =
  let c = compile n strategy prog in
  let count = 64 in
  let r =
    simulate n
      ~options:
        { Driver.default_sim_options with
          Driver.feeds = [ ("input", Apps.Micro_src.feed_positive count) ];
          drains = [ "output" ];
          params = [ ("kernel", [ ("n", Int64.of_int count) ]) ] }
      c
  in
  let pipes =
    List.filter (fun (p : Engine.pipe_stats) -> p.Engine.issues > 0) r.Driver.engine.Engine.pipes
  in
  Printf.sprintf "%s cycles=%d outcome=%s pipes=[%s]" (design c) r.Driver.engine.Engine.cycles
    (outcome_name r.Driver.engine.Engine.outcome)
    (String.concat ";"
       (List.map
          (fun (p : Engine.pipe_stats) ->
            Printf.sprintf "lat=%d,ii=%.6f" p.Engine.latency_measured p.Engine.ii_measured)
          pipes))

let t3_strategy = { Driver.optimized with Driver.replicate = false; share = `Per_proc }
let t4_strategy = { Driver.optimized with Driver.share = `Per_proc }

let table3_kernels =
  [ ("scalar", Apps.Micro_src.scalar_nonpipelined);
    ("array-nonconsecutive", Apps.Micro_src.array_nonconsecutive);
    ("array-consecutive", Apps.Micro_src.array_consecutive) ]

let table4_kernels =
  [ ("scalar-pipelined", Apps.Micro_src.scalar_pipelined);
    ("array-pipelined", Apps.Micro_src.array_pipelined) ]

(* Figures 4 and 5: the loopback sweep, one design per (N, strategy) *)
let sweep_strategies =
  [ ("baseline", Driver.baseline); ("unoptimized", Driver.unoptimized);
    ("shared32", { Driver.unoptimized with Driver.share = `Shared 32 }) ]

let loopback n prog strategy () = design (compile n strategy prog)

(* Section 5.1, example 1: the narrowed comparison of Figure 3 *)
let fig3_src =
  {| stream int32 out depth 4;
     process hw check() {
       int64 c1; int64 c2; int32 addr;
       c1 = 4294967296; c2 = 4294967286; addr = 0;
       if (c2 > c1) { addr = addr - 10; }
       assert(addr >= 0);
       stream_write(out, addr);
     } |}

let software ?options ?nabort c =
  Span.with_ "interp" (fun () -> Driver.software_sim ?options ?nabort c)

let sec51_fig3 n prog () =
  let faults =
    [ Faults.Fault.Narrow_compare { fproc = "check"; select = Faults.Fault.All; mask_bits = 5 } ]
  in
  let c = compile n ~faults Driver.parallelized prog in
  let sw = software c in
  let hw = simulate n c in
  Printf.sprintf "%s software_ok=%b circuit=%s" (design c) (Interp.ok sw)
    (match hw.Driver.engine.Engine.outcome with Engine.Aborted _ -> "caught" | _ -> "missed")

(* Section 5.1, example 2: a hang located by assert(0) tracing *)
let hang_src =
  {| stream int32 din depth 16; stream int32 dout depth 16;
     process hw worker(int32 n) {
       int32 flags[4]; int32 i;
       assert(0);
       flags[0] = 0;
       for (i = 0; i < n; i = i + 1) {
         int32 v; v = stream_read(din); stream_write(dout, v + 1);
       }
       assert(0);
       flags[0] = 1;
       int32 done; done = flags[0];
       while (done == 0) { done = flags[0]; }
       assert(0);
     } |}

let sec51_hang n prog () =
  let faults = [ Faults.Fault.Read_for_write { fproc = "worker"; select = Faults.Fault.Nth 1 } ] in
  let strategy = { Driver.unoptimized with Driver.nabort = true } in
  let c = compile n ~faults strategy prog in
  let options =
    { Driver.default_sim_options with
      Driver.feeds = [ ("din", [ 1L; 2L; 3L; 4L ]) ];
      drains = [ "dout" ];
      params = [ ("worker", [ ("n", 4L) ]) ];
      max_cycles = 3_000 }
  in
  let sw = software ~options ~nabort:true c in
  let hw = simulate n ~options c in
  Printf.sprintf "%s software_points=%d circuit_points=%d circuit=%s" (design c)
    (List.length sw.Interp.failures)
    (List.length hw.Driver.failed_assertions)
    (outcome_name hw.Driver.engine.Engine.outcome)

(* --- the workload ------------------------------------------------------------ *)

let sweep_sizes smoke = if smoke then [ 1; 2 ] else [ 1; 2; 4; 8; 16; 32; 64; 128 ]

(* Every item: (name, thunk rendering the design point).  The sources
   are generated and elaborated here, at set-up, each once. *)
let items ~smoke n =
  let des3 = elab ~file:"des3.c" (Apps.Des_src.demo_source ()) in
  let edge = elab ~file:"edge.c" (Apps.Edge_src.demo_source ()) in
  let kernels ks = List.map (fun (k, src) -> (k, elab ~file:"kernel.c" src)) ks in
  let micro table ks optimized =
    List.concat_map
      (fun (k, prog) ->
        List.map
          (fun (s, st) -> (Printf.sprintf "%s %s %s" table k s, fun () -> kernel n prog st))
          [ ("baseline", Driver.baseline); ("unoptimized", Driver.unoptimized);
            ("optimized", optimized) ])
      (kernels ks)
  in
  List.map (fun (s, st) -> ("table1 des3 " ^ s, table1 n des3 (s, st))) strategies
  @ List.map (fun (s, st) -> ("table2 edge " ^ s, table2 n edge (s, st)))
      (List.filter (fun (s, _) -> s <> "unoptimized") strategies)
  @ micro "table3" table3_kernels t3_strategy
  @ micro "table4" table4_kernels t4_strategy
  @ List.concat_map
      (fun size ->
        let prog = elab ~file:"loopback.c" (Apps.Loopback_src.source ~n:size ()) in
        List.map
          (fun (s, st) -> (Printf.sprintf "figure45 loopback%d %s" size s, loopback n prog st))
          sweep_strategies)
      (sweep_sizes smoke)
  @ [ ("sec51 fig3", sec51_fig3 n (elab ~file:"fig3.c" fig3_src));
      ("sec51 hang", sec51_hang n (elab ~file:"worker.c" hang_src)) ]

let setup (ctx : Wl.ctx) =
  let n = { compiles = 0; cycles = 0; vhdl_bytes = 0; probe_mismatches = 0 } in
  let items = Wl.shuffle ctx (items ~smoke:ctx.Wl.smoke n) in
  let expected = Ref.load_tsv (Wl.ref_path "paper.tsv") in
  fun ~traced ->
    n.compiles <- 0;
    n.cycles <- 0;
    n.vhdl_bytes <- 0;
    n.probe_mismatches <- 0;
    let out =
      List.map
        (fun (name, f) ->
          (name, match f () with s -> Ok s | exception e -> Error (Printexc.to_string e)))
        items
    in
    fun () ->
      let lines = Ref.outcome_lines out in
      let failures =
        Ref.mismatches ~complete:(not ctx.Wl.smoke) ~expected out
        @ List.init n.probe_mismatches (fun _ -> "probed VHDL differs from the compiled design's")
      in
      {
        Wl.attempted = List.length items;
        failures;
        counters = [ ("core.compiles", n.compiles); ("sim.cycles", n.cycles) ];
        layers =
          (if not traced then []
           else
             let p = !Span.pass in
             [
               (* elaboration is set-up, traced as pass 0 *)
               ("front.parse_s", Span.total 0 "front.parse");
               ("core.front_s", Span.total p "core.front");
               ("core.finish_s", Span.total p "core.finish");
               ("hls.schedule_s", Span.total p "hls.schedule");
               ("rtl.vhdl_s", Span.total p "rtl.vhdl");
               ("rtl.vhdl_bytes", float_of_int n.vhdl_bytes);
               ("interp.s", Span.total p "interp");
             ]);
        fingerprint = lines;
      }

let workload = { Wl.name = "paper"; reference = Some "paper.tsv"; setup }
