"""CosmoFlow's network layers and their kernel cost descriptions.

CosmoFlow (Mathuriya et al., MLPerf HPC) is a 3D CNN over cosmology
volumes: five Conv3D(3x3x3)+LeakyReLU+MaxPool blocks doubling the
channel count while halving each spatial dimension, followed by three
dense layers. Each layer knows its FLOP counts and emits the CUDA
kernels TensorFlow would launch for it (forward, and data/weight
gradients + elementwise ops for backward).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ...gpusim.kernels import KernelSpec

__all__ = [
    "Conv3DBlock",
    "DenseLayer",
    "cosmoflow_layers",
    "INPUT_SHAPE",
    "CONV_CHANNELS",
    "DENSE_UNITS",
]

#: CosmoFlow input volume: 128^3 voxels with 4 redshift channels.
INPUT_SHAPE: Tuple[int, int, int, int] = (128, 128, 128, 4)
#: Output channels of the five conv blocks.
CONV_CHANNELS: Tuple[int, ...] = (32, 64, 128, 256, 512)
#: Units of the three dense layers (last = 4 target parameters).
DENSE_UNITS: Tuple[int, ...] = (128, 64, 4)

#: Achievable fraction of peak for implicit-GEMM 3D convolutions and
#: for small fully-connected GEMMs on an A100.
_CONV_EFFICIENCY = 0.35
_DENSE_EFFICIENCY = 0.10


@dataclass(frozen=True)
class Conv3DBlock:
    """One Conv3D(3^3) + LeakyReLU + MaxPool(2^3) block."""

    index: int
    in_channels: int
    out_channels: int
    spatial: int  # input edge length (voxels per dimension)
    kernel_edge: int = 3

    @property
    def output_voxels(self) -> int:
        """Spatial positions the convolution computes (same padding)."""
        return self.spatial**3

    def forward_flops(self, batch: int) -> float:
        """Multiply-add FLOPs of the forward convolution."""
        taps = self.kernel_edge**3
        return 2.0 * batch * self.in_channels * self.out_channels * taps * self.output_voxels

    def activation_bytes(self, batch: int) -> float:
        """Bytes of the block's output activations (float32)."""
        return 4.0 * batch * self.out_channels * self.output_voxels

    def forward_kernels(self, batch: int) -> List[KernelSpec]:
        """Kernels TensorFlow launches for this block's forward pass."""
        i = self.index
        return [
            KernelSpec(
                name=f"conv{i}_fprop",
                flops=self.forward_flops(batch),
                bytes_accessed=self.activation_bytes(batch),
                efficiency=_CONV_EFFICIENCY,
                meta={"layer": f"conv{i}"},
            ),
            KernelSpec(
                name=f"leaky_relu{i}",
                bytes_accessed=2 * self.activation_bytes(batch),
            ),
            KernelSpec(
                name=f"maxpool{i}",
                bytes_accessed=1.125 * self.activation_bytes(batch),
            ),
        ]

    def backward_kernels(self, batch: int) -> List[KernelSpec]:
        """Kernels of the backward pass (dgrad + wgrad + fused bias)."""
        i = self.index
        fwd = self.forward_flops(batch)
        act = self.activation_bytes(batch)
        return [
            KernelSpec(
                name=f"conv{i}_dgrad",
                flops=fwd,
                bytes_accessed=act,
                efficiency=_CONV_EFFICIENCY,
                meta={"layer": f"conv{i}"},
            ),
            KernelSpec(
                name=f"conv{i}_wgrad",
                flops=fwd,
                bytes_accessed=act,
                efficiency=_CONV_EFFICIENCY * 0.9,
                meta={"layer": f"conv{i}"},
            ),
            KernelSpec(
                name=f"relu_grad{i}",
                bytes_accessed=2 * act,
            ),
            KernelSpec(
                name=f"pool_grad{i}",
                bytes_accessed=1.125 * act,
            ),
        ]


@dataclass(frozen=True)
class DenseLayer:
    """A fully connected layer (small GEMMs + bias/activation)."""

    index: int
    in_features: int
    out_features: int

    def forward_flops(self, batch: int) -> float:
        """FLOPs of the forward GEMM."""
        return 2.0 * batch * self.in_features * self.out_features

    def forward_kernels(self, batch: int) -> List[KernelSpec]:
        """Forward GEMM plus bias/activation."""
        i = self.index
        return [
            KernelSpec(
                name=f"dense{i}_gemm",
                flops=self.forward_flops(batch),
                bytes_accessed=4.0 * (self.in_features * self.out_features),
                efficiency=_DENSE_EFFICIENCY,
            ),
            KernelSpec(
                name=f"dense{i}_bias_act",
                bytes_accessed=8.0 * batch * self.out_features,
            ),
        ]

    def backward_kernels(self, batch: int) -> List[KernelSpec]:
        """Backward GEMMs (dgrad + wgrad)."""
        i = self.index
        return [
            KernelSpec(
                name=f"dense{i}_dgrad",
                flops=self.forward_flops(batch),
                bytes_accessed=4.0 * self.in_features * self.out_features,
                efficiency=_DENSE_EFFICIENCY,
            ),
            KernelSpec(
                name=f"dense{i}_wgrad",
                flops=self.forward_flops(batch),
                bytes_accessed=4.0 * self.in_features * self.out_features,
                efficiency=_DENSE_EFFICIENCY,
            ),
        ]


def cosmoflow_layers() -> Tuple[List[Conv3DBlock], List[DenseLayer]]:
    """Build the CosmoFlow layer stack (conv blocks, dense layers)."""
    convs: List[Conv3DBlock] = []
    spatial = INPUT_SHAPE[0]
    in_ch = INPUT_SHAPE[3]
    for i, out_ch in enumerate(CONV_CHANNELS, start=1):
        convs.append(
            Conv3DBlock(
                index=i, in_channels=in_ch, out_channels=out_ch, spatial=spatial
            )
        )
        in_ch = out_ch
        spatial //= 2  # maxpool halves each dimension
    flat = CONV_CHANNELS[-1] * spatial**3
    denses: List[DenseLayer] = []
    in_f = flat
    for i, units in enumerate(DENSE_UNITS, start=1):
        denses.append(DenseLayer(index=i, in_features=in_f, out_features=units))
        in_f = units
    return convs, denses
