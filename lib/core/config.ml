(** Tunable parameters of the reclamation schemes: the paper's dials.

    The paper's evaluation (§6) fixes: epoch-advance attempt per 128
    retirements; BRCU forces (signals) after 2 consecutive failed advances;
    NBR-Large uses an 8192-retirement threshold.  A config is a plain value
    passed to a scheme's [create], so NBR and NBR-Large are simply two
    domains of one scheme.  HP-BRCU's two defences, abort-masking (§4.2)
    and double buffering (§4.3), are not parameters: the hunt's planted
    mutants that drop them are their own scheme entries
    ({!Hpbrcu_workload.Matrix.hunt_impls}). *)

type t = {
  batch : int;
      (** retirements accumulated locally before triggering a reclamation
          pass / epoch-advance attempt (paper: 128) *)
  checkpoint_steps : int;
      (** traversal steps between checkpoints: HP-RCU's steps per RCU
          critical section (Algorithm 3's [MaxSteps]), HP-BRCU's steps
          between Traverse checkpoints (Algorithm 7's [BackupPeriod]) *)
  force_threshold : int;
      (** BRCU: failed epoch-advance attempts tolerated before signaling the
          lagging threads (Algorithm 5's [ForceThreshold], paper: 2) *)
  max_local_tasks : int;
      (** BRCU: deferred tasks buffered thread-locally before flushing to
          the global queue (Algorithm 5's [MaxLocalTasks]) *)
}

let default =
  { batch = 128; checkpoint_steps = 64; force_threshold = 2; max_local_tasks = 64 }

(** NBR-Large: amortize signals with a large batch (paper §6: 8192). *)
let large_batch = { default with batch = 8192 }
