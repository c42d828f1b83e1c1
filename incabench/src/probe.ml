(* The machine-speed probe.

   The benchmark runs on shared machines whose speed drifts by a third
   and more over minutes, CPU time included, because other tenants
   share the cores (README.md, "Steadiness").  An untraced run times
   this fixed piece of work, which calls nothing in lib/, next to its
   passes, and reports its times scaled to a reference speed: a time
   [t] measured while the probe's median was [p] reads
   [t *. reference /. p]. *)

(** Seconds one probe takes at the reference speed. *)
let reference = 0.0025

let sink = ref 0

(* One probe: hash, sort and fold 4000 small allocated values, a few
   milliseconds of the kind of work a compiler does; its duration. *)
let once () =
  let t0 = Span.now () in
  let h = Hashtbl.create 64 in
  for i = 0 to 3999 do
    Hashtbl.replace h (string_of_int (i * 7919 mod 4001)) [ i; i + 1 ]
  done;
  let l = List.sort compare (Hashtbl.fold (fun k v acc -> (k, List.length v) :: acc) h []) in
  sink := !sink + List.fold_left (fun m (k, v) -> if String.length k > 2 then m + v else m) 0 l;
  Span.now () -. t0

(** Probes for [seconds], at least five; returns their durations. *)
let sample seconds =
  let until = Span.now () +. seconds in
  let rec go acc k =
    let acc = once () :: acc in
    if k > 1 || Span.now () < until then go acc (k - 1) else acc
  in
  go [] 5

(** The factor that takes a time measured next to the probe durations
    [ds] to the reference speed. *)
let scale ds = reference /. Span.median ds
