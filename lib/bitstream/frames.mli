(** Sparse configuration-frame store: one per SLR microcontroller.

    Frames are keyed by (row, column, minor) and allocated on first
    write; reads of a never-written frame see zeros and store nothing.  A
    frame is {!Zoomie_fabric.Geometry.words_per_frame} words.
    This is the "SRAM" a real device's configuration plane writes — the
    board reads LUT equations, FF init/captured state and memory contents
    out of it. *)

(** (row, column, minor). *)
type key = int * int * int

type t

val create : unit -> t

(** The frame at [key] for writing, allocating zeroed storage on first
    touch. *)
val frame : t -> key -> int array

(** The frame at [key] for reading, allocating nothing: a never-written
    frame is a shared zero frame, which the caller must not mutate. *)
val peek : t -> key -> int array

val read_word : t -> key -> int -> int

val write_word : t -> key -> int -> int -> unit

val get_bit : t -> key -> word:int -> bit:int -> bool

val set_bit : t -> key -> word:int -> bit:int -> bool -> unit

(** Copy of the frame's contents. *)
val read_frame : t -> key -> int array

val write_frame : t -> key -> int array -> unit

(** Number of frames written so far. *)
val allocated : t -> int

val clear : t -> unit
