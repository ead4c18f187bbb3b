"""Tests for the rCUDA-style API remoting comparator."""

import pytest

from repro.des import Environment
from repro.gpusim import CudaRuntime, KernelSpec, RemotingSpec
from repro.gpusim.remoting import make_remoting_device
from repro.hw import GiB, MiB, PCIE_GEN4_X16
from repro.proxy.core import iteration_body
from repro.trace import CopyKind

from ..oracles import proxyloop
from ..oracles.remoting import make_remoting_runtime


class TestRemotingSpec:
    def test_link_spec_caps_bandwidth(self):
        spec = RemotingSpec(network_bandwidth_Bps=12.5e9)
        link = spec.as_link_spec(PCIE_GEN4_X16)
        assert link.effective_bandwidth_Bps == pytest.approx(12.5e9)

    def test_link_spec_adds_rpc_latency(self):
        spec = RemotingSpec(rpc_latency_s=5e-6)
        link = spec.as_link_spec(PCIE_GEN4_X16)
        assert link.latency_s == pytest.approx(
            PCIE_GEN4_X16.latency_s + 5e-6
        )

    def test_fat_network_keeps_pcie_bandwidth(self):
        spec = RemotingSpec(network_bandwidth_Bps=100e9)
        link = spec.as_link_spec(PCIE_GEN4_X16)
        assert link.effective_bandwidth_Bps == pytest.approx(
            PCIE_GEN4_X16.effective_bandwidth_Bps
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            RemotingSpec(rpc_latency_s=-1)
        with pytest.raises(ValueError):
            RemotingSpec(network_bandwidth_Bps=0)


class TestRemotingRuntime:
    def run_loop(self, rt, env, nbytes=256 * MiB, iters=5):
        kernel = KernelSpec(name="k", duration_s=10e-3)

        def host():
            t0 = env.now
            for _ in range(iters):
                yield from rt.memcpy(nbytes, CopyKind.H2D)
                yield from rt.launch(kernel, blocking=True)
                yield from rt.memcpy(nbytes, CopyKind.D2H)
                yield from rt.synchronize()
            return env.now - t0

        proc = env.process(host())
        env.run()
        return proc.value

    def test_remoting_slower_than_native(self):
        env1 = Environment()
        native = CudaRuntime(env1)
        t_native = self.run_loop(native, env1)

        env2 = Environment()
        remoted = make_remoting_runtime(env2)
        t_remoted = self.run_loop(remoted, env2)
        assert t_remoted > t_native

    def test_bandwidth_penalty_dominates_large_transfers(self):
        # CDI (latency only) vs remoting (latency + bandwidth cap):
        # for GiB transfers the bandwidth cap costs far more than the
        # RPC latency.
        from repro.network import SlackModel

        env1 = Environment()
        cdi = CudaRuntime(env1, slack=SlackModel(5e-6))
        t_cdi = self.run_loop(cdi, env1, nbytes=GiB, iters=2)

        env2 = Environment()
        remoted = make_remoting_runtime(env2, RemotingSpec(rpc_latency_s=5e-6))
        t_rem = self.run_loop(remoted, env2, nbytes=GiB, iters=2)
        # PCIe 25.6 GB/s vs network 12.5 GB/s: ~2x on the copy time.
        assert t_rem > 1.5 * t_cdi

    def test_rpc_latency_charged_per_call(self):
        env = Environment()
        rt = make_remoting_runtime(env, RemotingSpec(rpc_latency_s=10e-6))

        def host():
            for _ in range(4):
                yield from rt.memcpy(MiB, CopyKind.H2D)

        env.process(host())
        env.run()
        assert rt.injector.total_injected_s == pytest.approx(4 * 10e-6)


#: Every RemotingSpec the tests above build.
SPECS = [
    RemotingSpec(),
    RemotingSpec(network_bandwidth_Bps=12.5e9),
    RemotingSpec(network_bandwidth_Bps=100e9),
    RemotingSpec(rpc_latency_s=5e-6),
    RemotingSpec(rpc_latency_s=10e-6),
]


class TestRemotingDevice:
    @pytest.mark.parametrize("spec", SPECS, ids=repr)
    @pytest.mark.parametrize("n", [512, 2048, 8192])
    def test_proxy_loop_equals_des(self, spec, n):
        # ext_remoting's loop on the index core against the same loop on
        # make_remoting_runtime's CudaRuntime.
        dev = make_remoting_device(spec)
        core = dev.run([iteration_body(dev, n)], [0], count=10).end_s
        assert core == proxyloop.loop_time(
            lambda env: make_remoting_runtime(env, spec), n
        )
        assert dev.slack.calls_delayed == 50
