"""Fig. 12 — IP space extension through partial replication vs
transmission range and network size (ours vs the C-tree scheme [3]).

Paper's claims: replication "could extend the IP space of a cluster
head by up to 5.5 times its original size", and "as the transmission
range increases, the IP space size ratio of our protocol to [3]
increases".  [3] keeps no replicas, so its ratio is identically 1.
"""

from repro.experiments import figures

from benchmarks.conftest import run_figure


# The peak-beyond-the-smallest-range check failed while head proposals
# had no timeout (quorum nn=200: 13.20 at tr=100 m, 11.12 at 150 m).
# Stale QDSets inflate the extension most at the smallest range, and
# they are not fixed (ROADMAP, "Keep each QDSet equal to the 3-hop
# head ring"), so the check may fail again at other arguments.
def test_fig12_ip_space_extension(benchmark, sweep_executor):
    result = run_figure(benchmark, lambda: figures.fig12_ip_space_extension(
        ranges=(100.0, 150.0, 200.0, 250.0), sizes=(100, 200), seeds=(1,),
        executor=sweep_executor))
    assert all(v == 1.0 for v in result["series"]["ctree (no replication)"])
    for label, values in result["series"].items():
        if label.startswith("quorum"):
            assert all(v > 1.0 for v in values), label
            # Larger ranges yield larger QDSets and more replication:
            # the peak extension lies beyond the smallest range (exact
            # monotonicity is noisy under mobility churn).
            assert max(values[1:]) > values[0], label
            # In the paper's regime (several-fold, not marginal).
            assert max(values) > 3.0, label
