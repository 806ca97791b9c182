"""Workloads of the convergence-study benchmark.

Plain data only: the set-up probe imports this module before it times the
import of ``hho_control``, so nothing here may import the package or numpy.

Each workload is one study of ``hho-control run``: a ladder of refinement
levels for one scheme, run in order.  ``rate_window`` bounds the
experimental order of convergence of the control error between the last two
levels: around k+1 = 2 for uc1 and 3 for wc2, as in the acceptance tests.

The ladders stop one refinement below the sizes of ROADMAP item 1 (64x64,
Voronoi 1024).  On a 2-vCPU host shared with other machines, a 10 s level
runs at a varying mix of fast and slow host speed; a 30 s run then holds two
samples, and its medians spread by about 20 % between runs.  A 1-3 s finest
level gives a run 7-20 samples, and each workload keeps its dominant layer.
"""

WORKLOADS = {
    # SuperLU on the uncondensed two-field system is the largest stage; the
    # congruence cache makes local operators nearly free.  Exercises static
    # condensation.
    "uc1-cartesian": {
        "config": {"scheme": "uc1", "degree": 1, "mesh_family": "cartesian",
                   "levels": [16, 32], "preset": "uc1-default"},
        "rate_window": (1.8, 2.3),
    },
    # No two cells are congruent, so local operators and mesh generation
    # dominate and the solve is small.  Exercises batched local kernels and
    # bypasses condensation's share of the time.
    "uc1-voronoi": {
        "config": {"scheme": "uc1", "degree": 1, "mesh_family": "voronoi",
                   "levels": [64, 256], "preset": "uc1-default",
                   "lloyd_iters": 10},
        "rate_window": (1.8, 2.3),
    },
    # One factorization and 40 damped fixed-point iterations with per-cell
    # Python loops; errors use the kink-aware refined quadrature.  Exercises
    # the constrained solver that the uc workloads bypass.
    "wc2-cartesian": {
        "config": {"scheme": "wc2", "degree": 1, "mesh_family": "cartesian",
                   "levels": [16, 32], "preset": "wc-default"},
        "rate_window": (2.6, 3.4),
    },
}


def config_kwargs(name, seed, output_dir="out"):
    """ExperimentConfig keywords of a workload; the seed feeds only Voronoi."""
    kwargs = dict(WORKLOADS[name]["config"], output_dir=output_dir)
    kwargs["levels"] = list(kwargs["levels"])
    if kwargs["mesh_family"] == "voronoi":
        kwargs["rng_seed"] = seed
    return kwargs
