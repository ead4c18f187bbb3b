"""The CosmoFlow network: per-step kernel sequences.

Assembles the layer stack into the ordered kernel sequence one
training (forward + backward + optimizer) or validation (forward only)
step submits to the GPU — the "large number of varying sized kernels
in quick succession" the paper observes in CosmoFlow's traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ...gpusim.kernels import KernelSpec
from ...hw.specs import GPUSpec
from .layers import Conv3DBlock, DenseLayer, cosmoflow_layers

__all__ = ["CosmoFlowNet"]


@dataclass(frozen=True)
class CosmoFlowNet:
    """The CosmoFlow CNN as a kernel-sequence generator."""

    batch_size: int = 4

    def __post_init__(self) -> None:
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        convs, denses = cosmoflow_layers()
        object.__setattr__(self, "_convs", convs)
        object.__setattr__(self, "_denses", denses)

    @property
    def convs(self) -> List[Conv3DBlock]:
        """The five Conv3D blocks."""
        return list(self._convs)  # type: ignore[attr-defined]

    @property
    def denses(self) -> List[DenseLayer]:
        """The three dense layers."""
        return list(self._denses)  # type: ignore[attr-defined]

    # -- sequences ----------------------------------------------------------------
    def forward_kernels(self) -> List[KernelSpec]:
        """Ordered kernels of one forward pass."""
        seq: List[KernelSpec] = []
        for conv in self.convs:
            seq.extend(conv.forward_kernels(self.batch_size))
        for dense in self.denses:
            seq.extend(dense.forward_kernels(self.batch_size))
        seq.append(KernelSpec(name="mse_loss", bytes_accessed=1e5))
        return seq

    def backward_kernels(self) -> List[KernelSpec]:
        """Ordered kernels of one backward pass + optimizer update."""
        seq: List[KernelSpec] = [
            KernelSpec(name="loss_grad", bytes_accessed=1e5)
        ]
        for dense in reversed(self.denses):
            seq.extend(dense.backward_kernels(self.batch_size))
        for conv in reversed(self.convs):
            seq.extend(conv.backward_kernels(self.batch_size))
        seq.append(
            KernelSpec(
                name="sgd_apply_gradients",
                bytes_accessed=3.0 * 4.0 * self.parameter_count(),
            )
        )
        return seq

    def training_step_kernels(self) -> List[KernelSpec]:
        """Forward + backward kernel sequence of a training step."""
        return self.forward_kernels() + self.backward_kernels()

    def validation_step_kernels(self) -> List[KernelSpec]:
        """Forward-only sequence of a validation step."""
        return self.forward_kernels()

    # -- sizes ---------------------------------------------------------------------
    def parameter_count(self) -> int:
        """Trainable parameters of the network."""
        count = 0
        for conv in self.convs:
            count += conv.kernel_edge**3 * conv.in_channels * conv.out_channels
            count += conv.out_channels  # bias
        for dense in self.denses:
            count += dense.in_features * dense.out_features + dense.out_features
        return count

    def sample_bytes(self) -> int:
        """Bytes of one input sample (float32 voxels)."""
        from .layers import INPUT_SHAPE

        d, h, w, c = INPUT_SHAPE
        return 4 * d * h * w * c

    def step_gpu_seconds(self, gpu: GPUSpec, training: bool = True) -> float:
        """Total kernel execution time of one step on ``gpu``."""
        kernels = (
            self.training_step_kernels() if training else self.validation_step_kernels()
        )
        return sum(k.execution_time(gpu) for k in kernels)
