"""No code: the threshold-autoscaling baseline is ``sim.run_baseline``. The
module stays because ``bench/run.py`` imports each program module by name."""
