"""The package's export list."""
import levyfourier


def test_every_exported_name_resolves_once():
    names = levyfourier.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(levyfourier, name) is not None, name


def test_removed_gridding_parameters_stay_unexported():
    # the gridding lattice is derived inside Step 1; nothing sets it, and
    # each source's band replaces the per-node windows; kernel_table
    # returns the table itself, not a KernelTable
    for name in ("NufftParams", "nufft_params", "build_windows", "KernelTable"):
        assert name not in levyfourier.__all__
        assert not hasattr(levyfourier, name)
