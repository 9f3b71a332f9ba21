(* What a workload hands back to main: its figures and regime labels.
   The workload has already run its output checks. *)

type t = {
  digest : string;  (** digest of the generated op stream *)
  soc : Zoomie.Zoomie_api.Workloads.Manycore.config;  (** the SoC measured *)
  layout : string;  (** shard/board/connection layout, or the rig *)
  netsim_window : string;  (** warm-up and events/cycle of the window *)
  attempted : int;
  failed : int;
  e2e : Common.metric list;  (** the end-to-end metrics every workload reports *)
  notes : (string * string) list;  (** metric name -> how to read it *)
  extra : Common.metric list;  (** end-to-end figures printed, not in the result line *)
  layers : Common.metric list;  (** traced run only *)
  netsim_probe : unit -> Rig.netsim_probe;
      (** the netsim layer alone on a fresh board of this workload's design
          (traced run only) *)
}
