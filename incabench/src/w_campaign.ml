(* Workload [campaign]: the fault-injection campaign over the five
   bundled applications and the four default strategies, fork mode with
   default pruning, on the worker domains.  The memory cache is reset
   before each pass, as every [inca campaign] process starts cold.  One
   item is one mutant run; its class must equal the committed
   classification map.

   Traced, the campaign is driven through its public pieces:
   [plan], [eval_shard] on the pool, [merge]. *)

(* [workload TAB strategy TAB fault] -> class, from a classification map *)
let classes_of report =
  List.filter_map
    (fun line ->
      match String.rindex_opt line '\t' with
      | Some i -> Some (String.sub line 0 i, String.sub line (i + 1) (String.length line - i - 1))
      | None -> None)
    (String.split_on_char '\n' (Campaign.render_classes report))

let traced_run (ctx : Wl.ctx) ~config workloads =
  let p = Span.with_ "faults.plan" (fun () -> Campaign.plan ~config workloads) in
  let outcomes, pool =
    Span.with_ "faults.eval" (fun () ->
        Wl.pool_map ctx ~name:"faults.eval_shard" ~label:(Campaign.shard_label p)
          (Campaign.eval_shard p)
          (List.init (Campaign.shard_count p) Fun.id))
  in
  let runs =
    List.mapi
      (fun i (o : Campaign.run Exec.Pool.outcome) ->
        let attempts = o.Exec.Pool.attempts in
        match o.Exec.Pool.value with
        | Ok r -> Campaign.with_retry r ~attempts
        | Error m -> Campaign.with_retry (Campaign.crash_run p i m) ~attempts)
      outcomes
  in
  (Span.with_ "faults.merge" (fun () -> Campaign.merge p runs), pool)

let app_names = [ "fir"; "dct"; "des3"; "edge"; "pulse" ]

let layers report pool =
  let p = !Span.pass in
  let shards = Span.of_pass p "faults.eval_shard" in
  let ms s = Span.duration s *. 1e3 in
  let eval_s = Span.total p "faults.eval" in
  let cycles = List.fold_left (fun a (r : Campaign.run) -> a + r.Campaign.cycles) 0 report.Campaign.runs in
  [
    ("faults.plan_s", Span.total p "faults.plan");
    ("faults.eval_s", eval_s);
    ("faults.merge_s", Span.total p "faults.merge");
    ("faults.shard_p50_ms", Span.quantile 0.5 (List.map ms shards));
    ("faults.shard_p95_ms", Span.quantile 0.95 (List.map ms shards));
    ("sim.mcycles_per_s", if eval_s > 0.0 then float_of_int cycles /. eval_s /. 1e6 else 0.0);
  ]
  @ List.map
      (fun app ->
        ( "faults.shard_ms." ^ app,
          List.fold_left
            (fun acc s ->
              if String.starts_with ~prefix:(app ^ "/") s.Span.label then acc +. ms s else acc)
            0.0 shards ))
      app_names
  @ Wl.pool_layers [ pool ]

let setup (ctx : Wl.ctx) =
  let workloads = Campaign.bundled () in
  let workloads =
    Wl.shuffle ctx
      (if ctx.Wl.smoke then
         List.filter (fun (w : Campaign.workload) -> w.Campaign.wname = "fir") workloads
       else workloads)
  in
  let config =
    {
      Campaign.default_config with
      Campaign.mode = Campaign.Fork;
      jobs = Some ctx.Wl.jobs;
      prune_hangs = true;
    }
  in
  let expected = Ref.load_tsv (Wl.ref_path "campaign.tsv") in
  fun ~traced ->
    Exec.Cache.reset_memory ();
    let report, pool =
      if traced then traced_run ctx ~config workloads
      else (Campaign.run ~config workloads, (0.0, 0.0))
    in
    let cache = Exec.Cache.stats () in
    fun () ->
      let runs = report.Campaign.runs in
      let classes = List.map (fun (k, c) -> (k, Ok c)) (classes_of report) in
      let retried =
        List.filter_map
          (fun (r : Campaign.run) ->
            if r.Campaign.retried then
              Some (Printf.sprintf "%s/%s: retried" r.Campaign.workload r.Campaign.strategy)
            else None)
          runs
      in
      {
        Wl.attempted = List.length runs;
        failures = Ref.mismatches ~complete:(not ctx.Wl.smoke) ~expected classes @ retried;
        counters =
          [
            ("sim.cycles", List.fold_left (fun a (r : Campaign.run) -> a + r.Campaign.cycles) 0 runs);
            ("exec.cache_hits", cache.Exec.Cache.hits);
            ("exec.cache_misses", cache.Exec.Cache.misses);
            ("faults.pruned_static", report.Campaign.pruned_static);
            ("faults.pruned_hang", report.Campaign.pruned_hang);
            ("faults.retried", List.length retried);
          ];
        layers = (if traced then layers report pool else []);
        fingerprint = Ref.outcome_lines classes;
      }

let workload = { Wl.name = "campaign"; reference = Some "campaign.tsv"; setup }
