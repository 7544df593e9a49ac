(* The pending ΔO of one batch: two tables that never share a key, since
   each call first cancels against the opposite side. *)

module Obs = Ig_obs.Obs

type ('k, 'v) t = { gained : ('k, 'v) Hashtbl.t; lost : ('k, 'v) Hashtbl.t }

let create () = { gained = Hashtbl.create 16; lost = Hashtbl.create 16 }

let gain t k v =
  if Hashtbl.mem t.lost k then Hashtbl.remove t.lost k
  else Hashtbl.replace t.gained k v

let lose t k v =
  if Hashtbl.mem t.gained k then Hashtbl.remove t.gained k
  else Hashtbl.replace t.lost k v

let clear t =
  Hashtbl.reset t.gained;
  Hashtbl.reset t.lost

let flush t ~obs ~compare:order =
  let gained = Obs.sorted_bindings ~compare:order t.gained
  and lost = Obs.sorted_bindings ~compare:order t.lost in
  Obs.note_changed_output obs (List.length gained + List.length lost);
  clear t;
  (gained, lost)
