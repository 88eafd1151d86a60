"""User-space memory model: address spaces, regions, pinning, snapshots."""

from .address_space import (CHUNK_BYTES, PAGE_SIZE, AddressSpace,
                            ZERO_PIECE, MemoryError_, Region, TrackedView,
                            dirty_chunk_bytes)

__all__ = ["CHUNK_BYTES", "PAGE_SIZE", "AddressSpace", "MemoryError_",
           "Region", "TrackedView", "ZERO_PIECE", "dirty_chunk_bytes"]
