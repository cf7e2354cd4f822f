(** Tunable parameters of the reclamation schemes.

    The paper's evaluation (§6) fixes: epoch-advance attempt per 128
    retirements; BRCU forces (signals) after 2 consecutive failed advances;
    NBR-Large uses an 8192-retirement threshold.  A config is a plain value
    passed to a scheme's [create], so NBR and NBR-Large (and the ablation
    benches) are simply two domains of one scheme. *)

type t = {
  batch : int;
      (** retirements accumulated locally before triggering a reclamation
          pass / epoch-advance attempt (paper: 128) *)
  max_steps : int;
      (** HP-RCU: traversal steps per RCU critical section (Algorithm 3's
          [MaxSteps]) *)
  backup_period : int;
      (** HP-BRCU: steps between Traverse checkpoints (Algorithm 7's
          [BackupPeriod]) *)
  force_threshold : int;
      (** BRCU: failed epoch-advance attempts tolerated before signaling the
          lagging threads (Algorithm 5's [ForceThreshold], paper: 2) *)
  max_local_tasks : int;
      (** BRCU: deferred tasks buffered thread-locally before flushing to
          the global queue (Algorithm 5's [MaxLocalTasks]) *)
  pebr_eject_threshold : int;
      (** PEBR: failed advances tolerated before ejecting a lagging reader *)
  double_buffering : bool;
      (** HP-BRCU: use the two-protector checkpoint scheme of §4.3.
          Disabling it (ablation only!) makes checkpoints tearable by
          rollbacks — the torn-checkpoint unsoundness the design exists to
          prevent, observable as use-after-free in counting mode. *)
  abort_masking : bool;
      (** BRCU: honour Algorithm 6's Mask around abort-rollback-unsafe
          regions.  Disabling it (mutation-testing only!) lets a
          self-neutralization abort a physical-deletion region halfway
          through, stranding the unretired tail of a snipped chain — the
          planted bug `lib/check`'s hunt must catch (DESIGN.md §11). *)
}

let default =
  {
    batch = 128;
    max_steps = 64;
    backup_period = 64;
    force_threshold = 2;
    max_local_tasks = 64;
    pebr_eject_threshold = 2;
    double_buffering = true;
    abort_masking = true;
  }

(** NBR-Large: amortize signals with a large batch (paper §6: 8192). *)
let large_batch = { default with batch = 8192 }
