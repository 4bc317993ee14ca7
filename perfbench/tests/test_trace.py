"""The tracer counts what the per-layer metrics claim, survives a removed
target, and leaves the program as it found it."""

from scipy import fft as sfft

from perfbench import trace
from polaronlab import dynamics, fock
from polaronlab.initial_data import random_smooth_state
from polaronlab.spectral import build_form_factors, build_grid


def test_counts_transforms_under_a_dressed_step():
    g = build_grid(3, 8, 12.0)
    ff = build_form_factors(g, sigma0=0.8)
    z = random_smooth_state(g, seed=1, u_amp=0.4, alpha_amp=0.25, k_cut=0.5)
    originals = (sfft.fftn, dynamics.dressed_step)
    tracer = trace.Tracer()
    tracer.install()
    tracer.round = 0
    try:
        dynamics.dressed_step(z, 1e-2, ff)
    finally:
        tracer.uninstall()
    assert (sfft.fftn, dynamics.dressed_step) == originals
    m = tracer.metrics(0.0)
    calls = m["spectral.fft_calls"]["value"]
    assert calls > 0
    assert m["spectral.fft_calls_per_dressed_step"]["value"] == calls
    # batched (d, N, N, N) stacks count once per component
    assert m["spectral.fft_fields"]["value"] > calls
    assert 0 < m["dynamics.dressed_step_nonfft_ms"]["value"] \
        < m["dynamics.dressed_step_ms"]["value"]


def test_removed_target_reads_zero_and_is_named(monkeypatch):
    monkeypatch.delattr(fock, "classical_flow")
    tracer = trace.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["classical_flow"]
    m = tracer.metrics(0.0)
    assert [name for name, _ in trace.LAYER_METRICS] == list(m)
    assert m["fock.classical_flow_s"]["value"] == 0
