"""API remoting on the reference DES: the oracle of
:func:`repro.gpusim.remoting.make_remoting_device`.

:func:`make_remoting_runtime` puts the same costs on a
:class:`~repro.gpusim.CudaRuntime`: the RPC latency as slack, the
network-capped link spec and the marshalling cost on top of the API
overhead. The parity tests run the proxy loop on both.
"""

from typing import Optional

from repro.des import Environment
from repro.gpusim import CudaRuntime
from repro.gpusim.remoting import RemotingSpec
from repro.gpusim.runtime import API_OVERHEAD_S
from repro.hw import PCIE_GEN4_X16
from repro.network import SlackModel


def make_remoting_runtime(
    env: Environment, spec: Optional[RemotingSpec] = None
) -> CudaRuntime:
    """A :class:`CudaRuntime` with rCUDA-style remoting costs on the
    default A100 and PCIe Gen4 specs."""
    spec = spec or RemotingSpec()
    return CudaRuntime(
        env,
        pcie=spec.as_link_spec(PCIE_GEN4_X16),
        slack=SlackModel(spec.rpc_latency_s),
        api_overhead_s=API_OVERHEAD_S + spec.per_call_overhead_s,
    )
