(** Sparse configuration-frame store for one SLR.

    Frames are allocated on first write; unconfigured frames read back as
    zeros (like a blank device) without being stored.  Keys are (region
    row, column, minor). *)

type key = int * int * int

type t = {
  table : (key, int array) Hashtbl.t;
  words_per_frame : int;
}

let create () =
  { table = Hashtbl.create 1024; words_per_frame = Zoomie_fabric.Geometry.words_per_frame }

let frame t key =
  match Hashtbl.find_opt t.table key with
  | Some f -> f
  | None ->
    let f = Array.make t.words_per_frame 0 in
    Hashtbl.add t.table key f;
    f

(* What every never-written frame reads as; never handed out for writing. *)
let zeros = Array.make Zoomie_fabric.Geometry.words_per_frame 0

let peek t key = match Hashtbl.find_opt t.table key with Some f -> f | None -> zeros

let read_word t key i = (peek t key).(i)

let write_word t key i v = (frame t key).(i) <- v land 0xFFFFFFFF

let get_bit t key ~word ~bit = (read_word t key word lsr bit) land 1 = 1

let set_bit t key ~word ~bit v =
  let f = frame t key in
  if v then f.(word) <- f.(word) lor (1 lsl bit)
  else f.(word) <- f.(word) land lnot (1 lsl bit)

(** Entire frame as a word array (copied). *)
let read_frame t key = Array.copy (peek t key)

let write_frame t key data =
  if Array.length data <> t.words_per_frame then
    invalid_arg "Frames.write_frame: bad length";
  Array.blit data 0 (frame t key) 0 t.words_per_frame

let allocated t = Hashtbl.length t.table

let clear t = Hashtbl.reset t.table
