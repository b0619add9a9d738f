"""Patch tiling, branch geometry, descriptor fusion."""

import numpy as np
import pytest

from mrscene.errors import ConfigError, ShapeError
from mrscene.gradcheck import numeric_gradient, relative_error
from mrscene.init import ParameterSet
from mrscene.kbranch import (
    BranchSpec,
    ConvLayerSpec,
    FcParams,
    branch_forward,
    default_branch_specs,
    fuse_descriptors,
    make_branch_params,
    split_patches,
    tile,
)
from mrscene import tensor as T
from mrscene.tensor import Tensor


def ben_shaped_subsets(rng):
    return [
        rng.normal(size=(4, 120, 120)).astype(np.float32),
        rng.normal(size=(6, 60, 60)).astype(np.float32),
        rng.normal(size=(2, 20, 20)).astype(np.float32),
    ]


class TestSplitPatches:
    def test_bigearthnet_shaped_geometry(self):
        patches = split_patches(ben_shaped_subsets(np.random.default_rng(0)), 16)
        assert patches.per_subset[0].shape == (16, 4, 30, 30)
        assert patches.per_subset[1].shape == (16, 6, 15, 15)
        assert patches.per_subset[2].shape == (16, 2, 5, 5)

    def test_single_patch_is_whole_image(self):
        subsets = [np.random.default_rng(1).normal(size=(3, 8, 8))]
        patches = split_patches(subsets, 1)
        np.testing.assert_array_equal(patches.patch(0, 0), subsets[0])

    def test_row_major_order(self):
        # pixel value = patch index it belongs to, on a 4x4 grid
        img = np.zeros((1, 8, 8), np.float32)
        for g in range(4):
            for h in range(4):
                img[0, 2 * g : 2 * g + 2, 2 * h : 2 * h + 2] = 4 * g + h
        patches = split_patches([img], 16)
        for r in range(16):
            assert np.all(patches.patch(r, 0) == r)

    def test_patches_are_image_slices(self):
        arr = np.arange(2 * 12 * 8, dtype=np.float32).reshape(2, 12, 8)
        patches = split_patches([arr], 16)
        for r in range(16):
            i, j = divmod(r, 4)
            np.testing.assert_array_equal(patches.patch(r, 0), arr[:, i * 3 : (i + 1) * 3, j * 2 : (j + 1) * 2])

    def test_tile_is_patch_major(self):
        batch = np.arange(3 * 2 * 8 * 8, dtype=np.float32).reshape(3, 2, 8, 8)
        tiles = tile(batch, 4)
        assert tiles.shape == (16 * 3, 2, 2, 2)
        for b in range(3):
            per_sample = split_patches([batch[b]], 16)
            for r in range(16):
                np.testing.assert_array_equal(tiles[r * 3 + b], per_sample.patch(r, 0))

    def test_non_square_patch_count_rejected(self):
        """The grid rule ModelConfig.validate applies: no count but a
        positive perfect square passes, however large."""
        for n_patches in (3, 0, -4, 10**41, 10**42):
            with pytest.raises(ConfigError, match="n_patches|divisible"):
                split_patches([np.zeros((1, 8, 8))], n_patches)

    def test_non_divisible_dimensions_rejected(self):
        with pytest.raises(ConfigError):
            split_patches([np.zeros((1, 10, 10))], 9)


class TestBranchSpec:
    def test_default_specs_validate(self):
        for spec in default_branch_specs(3):
            spec.validate()

    def test_filter_regime_enforced(self):
        def spec_with(filters):
            return BranchSpec([ConvLayerSpec(3, f) for f in filters])

        spec_with([32, 64, 128, 64]).validate()
        spec_with([32, 64]).validate()
        with pytest.raises(ConfigError):
            spec_with([16, 32, 64]).validate()
        with pytest.raises(ConfigError):
            spec_with([32, 64, 128]).validate()
        with pytest.raises(ConfigError):
            spec_with([32, 48, 64]).validate()

    def test_default_last_branch_has_no_pooling(self):
        specs = default_branch_specs(3)
        assert not any(l.pool for l in specs[-1].layers)

    def test_spatial_trace_branch1(self):
        spec = default_branch_specs(3)[0]
        sizes = [s[0] for s in spec.spatial_trace(30, 30)]
        assert sizes == [30, 15, 7, 7, 7]

    def test_branch3_keeps_spatial_size(self):
        spec = default_branch_specs(3)[2]
        assert [l.kernel for l in spec.layers] == [2, 2, 2, 2]
        assert [l.filters for l in spec.layers] == [32, 64, 128, 64]
        assert [s[0] for s in spec.spatial_trace(5, 5)] == [5, 5, 5, 5, 5]

    def test_pooling_below_one_rejected(self):
        spec = BranchSpec([ConvLayerSpec(3, 32, pool=True), ConvLayerSpec(3, 64, pool=True)])
        with pytest.raises(ConfigError):
            spec.spatial_trace(2, 2)  # 2 -> 1, pooling 1x1 next would hit zero


class TestBranchForward:
    def small_spec(self):
        return BranchSpec(layers=[ConvLayerSpec(3, 4, pool=True), ConvLayerSpec(2, 3)], fc_out=5)

    def test_output_width_is_fc_out_regardless_of_content(self):
        rng = np.random.default_rng(3)
        spec = self.small_spec()
        params = make_branch_params(spec, 2, 6, 6, ParameterSet(seed=0), "br")
        for _ in range(3):
            out = branch_forward(Tensor(rng.normal(size=(2, 6, 6)).astype(np.float32)), spec, params)
            assert out.shape == (5,)

    def test_zero_parameters_give_zero_fc_bias(self):
        spec = self.small_spec()
        leaves = ParameterSet(seed=0)
        params = make_branch_params(spec, 2, 6, 6, leaves, "br")
        for t in leaves.values():
            t.data[...] = 0.0
        out = branch_forward(Tensor(np.random.default_rng(4).normal(size=(2, 6, 6))), spec, params)
        np.testing.assert_array_equal(out.data, params.fc.bias.data)

    def test_band_count_mismatch(self):
        spec = self.small_spec()
        params = make_branch_params(spec, 2, 6, 6, ParameterSet(seed=0), "br")
        with pytest.raises(ShapeError):
            branch_forward(Tensor(np.zeros((3, 6, 6))), spec, params)
        bare = BranchSpec(layers=[], fc_out=5)  # no conv layer: the fc finds the mismatch
        bare_params = make_branch_params(bare, 2, 6, 6, ParameterSet(seed=0), "bare")
        with pytest.raises(ShapeError):
            branch_forward(Tensor(np.zeros((3, 6, 6))), bare, bare_params)

    def test_batched_matches_per_patch(self):
        rng = np.random.default_rng(5)
        spec = self.small_spec()
        params = make_branch_params(spec, 2, 6, 6, ParameterSet(seed=1), "br")
        stack = rng.normal(size=(4, 2, 6, 6)).astype(np.float32)
        batched = branch_forward(Tensor(stack), spec, params).data
        for i in range(4):
            # gemm vs gemv accumulation order may differ by an ulp
            np.testing.assert_allclose(
                batched[i], branch_forward(Tensor(stack[i]), spec, params).data, rtol=1e-6, atol=1e-7
            )

    def test_gradcheck(self):
        rng = np.random.default_rng(6)
        spec = self.small_spec()
        named = ParameterSet(seed=2, dtype=np.float64)
        params = make_branch_params(spec, 2, 6, 6, named, "br")
        x = rng.normal(size=(2, 6, 6))
        mix = Tensor(rng.normal(size=5))

        def loss_fn():
            return T.sum_all(T.mul(branch_forward(Tensor(x), spec, params), mix))

        for t in named.values():
            t.zero_grad()
        loss_fn().backward()
        for name, t in named.items():
            numeric = numeric_gradient(lambda: loss_fn().item(), t)
            assert relative_error(t.grad, numeric) < 1e-4, name


class TestFuseDescriptors:
    def test_default_widths(self):
        rng = np.random.default_rng(7)
        fusion = FcParams(
            weight=Tensor(rng.normal(size=(128, 384)).astype(np.float32), requires_grad=True),
            bias=Tensor(np.zeros(128, np.float32), requires_grad=True),
        )
        outs = [Tensor(rng.normal(size=128).astype(np.float32)) for _ in range(3)]
        psi = fuse_descriptors(outs, fusion)
        assert psi.shape == (128,)

    def test_zero_weights_give_bias_for_every_patch(self):
        rng = np.random.default_rng(8)
        bias = rng.normal(size=6).astype(np.float32)
        fusion = FcParams(weight=Tensor(np.zeros((6, 9), np.float32)), bias=Tensor(bias))
        for _ in range(4):
            outs = [Tensor(rng.normal(size=3).astype(np.float32)) for _ in range(3)]
            np.testing.assert_array_equal(fuse_descriptors(outs, fusion).data, bias)

    def test_single_branch_degenerates(self):
        rng = np.random.default_rng(9)
        fusion = FcParams(weight=Tensor(rng.normal(size=(4, 5))), bias=Tensor(np.zeros(4)))
        one = Tensor(rng.normal(size=5))
        expected = fusion.weight.data @ one.data
        np.testing.assert_allclose(fuse_descriptors([one], fusion).data, expected, atol=1e-12)

    def test_missing_outputs_rejected(self):
        fusion = FcParams(weight=Tensor(np.zeros((4, 5))), bias=Tensor(np.zeros(4)))
        with pytest.raises(ShapeError):
            fuse_descriptors([], fusion)


class TestPatchPermutationSharing:
    def test_permuting_patches_permutes_descriptors_only(self):
        """Shared parameters: swapping two patches swaps their descriptors
        and leaves every other descriptor untouched."""
        rng = np.random.default_rng(10)
        spec = BranchSpec([ConvLayerSpec(3, 4)], fc_out=6)
        params = make_branch_params(spec, 2, 4, 4, ParameterSet(seed=3), "br")
        fusion = FcParams(weight=Tensor(rng.normal(size=(5, 6)).astype(np.float32)),
                          bias=Tensor(np.zeros(5, np.float32)))
        patches = [rng.normal(size=(2, 4, 4)).astype(np.float32) for _ in range(4)]

        def descriptors(patch_list):
            return [fuse_descriptors([branch_forward(Tensor(p), spec, params)], fusion).data
                    for p in patch_list]

        base = descriptors(patches)
        swapped = descriptors([patches[2], patches[1], patches[0], patches[3]])
        np.testing.assert_array_equal(base[0], swapped[2])
        np.testing.assert_array_equal(base[2], swapped[0])
        np.testing.assert_array_equal(base[1], swapped[1])
        np.testing.assert_array_equal(base[3], swapped[3])
