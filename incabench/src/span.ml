(* Spans recorded around calls into the library's layers.

   A span is (name, start, end, parent, pass) plus an optional label.
   Spans stay in memory while the workload runs and are written out as
   Chrome trace-event JSON when the run ends.  Recording is off unless
   [enabled] is set, so an untraced pass pays one branch per call site.

   Each domain keeps its own stack of open spans; a job running on a
   pool worker domain names its parent explicitly with [under]. *)

type t = {
  id : int;
  name : string;
  label : string;
  parent : int;  (** 0 = no parent *)
  pass : int;
  dom : int;
  t0 : float;  (** seconds on the monotonic clock *)
  t1 : float;
}

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let enabled = ref false
let pass = ref 0
let lock = Mutex.create ()
let recorded : t list ref = ref []
let next_id = Atomic.make 1
let stack : int list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

let current () = match Domain.DLS.get stack with p :: _ -> p | [] -> 0

let push s =
  Mutex.lock lock;
  recorded := s :: !recorded;
  Mutex.unlock lock

(** Record a finished interval whose name is only known once it ended
    (an interpreter run named by how it stopped, say). *)
let record name t0 t1 =
  if !enabled then
    push
      { id = Atomic.fetch_and_add next_id 1; name; label = ""; parent = current ();
        pass = !pass; dom = (Domain.self () :> int); t0; t1 }

(** [with_ name f] runs [f] inside a span called [name]. *)
let with_ ?(label = "") name f =
  if not !enabled then f ()
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let parent = current () in
    let saved = Domain.DLS.get stack in
    Domain.DLS.set stack (id :: saved);
    let t0 = now () in
    Fun.protect f ~finally:(fun () ->
        let t1 = now () in
        Domain.DLS.set stack saved;
        push { id; name; label; parent; pass = !pass; dom = (Domain.self () :> int); t0; t1 })
  end

(** Run [f] with [parent] as the open span of this domain: the jobs of
    an [Exec.Pool] capture [current ()] on the submitting domain. *)
let under parent f =
  if not !enabled then f ()
  else begin
    let saved = Domain.DLS.get stack in
    Domain.DLS.set stack [ parent ];
    Fun.protect f ~finally:(fun () -> Domain.DLS.set stack saved)
  end

let duration s = s.t1 -. s.t0

(** Spans of pass [p] called [name]. *)
let of_pass p name =
  List.filter (fun s -> s.pass = p && s.name = name) !recorded

(** Summed duration of the spans of pass [p] called [name]. *)
let total p name =
  List.fold_left (fun acc s -> acc +. duration s) 0.0 (of_pass p name)

(* --- self time ----------------------------------------------------------- *)

(* Length of the union of intervals, each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let rec go acc cur = function
    | [] -> ( match cur with Some (a, b) -> acc +. (b -. a) | None -> acc)
    | (a, b) :: rest -> (
        match cur with
        | Some (ca, cb) when a <= cb -> go acc (Some (ca, Float.max cb b)) rest
        | Some (ca, cb) -> go (acc +. (cb -. ca)) (Some (a, b)) rest
        | None -> go acc (Some (a, b)) rest)
  in
  go 0.0 None clipped

(** Per span name, over the given passes: (name, count, total seconds,
    self seconds), sorted by self time, largest first.  Self time is a
    span's duration minus the part of it its child spans cover. *)
let self_times passes =
  let spans = List.filter (fun s -> List.mem s.pass passes) !recorded in
  let children = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.add children s.parent (s.t0, s.t1)) spans;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let self = duration s -. covered ~lo:s.t0 ~hi:s.t1 (Hashtbl.find_all children s.id) in
      let n, tot, slf =
        Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt by_name s.name)
      in
      Hashtbl.replace by_name s.name (n + 1, tot +. duration s, slf +. self))
    spans;
  Hashtbl.fold (fun name (n, tot, slf) acc -> (name, n, tot, slf) :: acc) by_name []
  |> List.sort (fun (_, _, _, a) (_, _, _, b) -> compare b a)

(* --- Chrome trace-event output ------------------------------------------ *)

let chrome_json () : Json.t =
  let origin = List.fold_left (fun acc s -> Float.min acc s.t0) infinity !recorded in
  let us t = Json.Float (Float.round ((t -. origin) *. 1e7) /. 10.0) in
  let event s =
    Json.Obj
      [
        ("name", Json.Str s.name);
        ("ph", Json.Str "X");
        ("ts", us s.t0);
        ("dur", Json.Float (Float.round (duration s *. 1e7) /. 10.0));
        ("pid", Json.int 1);
        ("tid", Json.int s.dom);
        ( "args",
          Json.Obj
            ([ ("id", Json.int s.id); ("parent", Json.int s.parent); ("pass", Json.int s.pass) ]
            @ if s.label = "" then [] else [ ("label", Json.Str s.label) ]) );
      ]
  in
  let spans = List.sort (fun a b -> compare (a.t0, a.id) (b.t0, b.id)) !recorded in
  Json.Obj [ ("traceEvents", Json.List (List.map event spans)) ]

(* --- small statistics helpers --------------------------------------------- *)

(** Linear-interpolated quantile [q] in [0, 1]; 0 for an empty list. *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
      let a = Array.of_list sorted in
      let pos = q *. float_of_int (Array.length a - 1) in
      let i = truncate pos in
      let j = min (i + 1) (Array.length a - 1) in
      a.(i) +. ((pos -. float_of_int i) *. (a.(j) -. a.(i)))

let median xs = quantile 0.5 xs
