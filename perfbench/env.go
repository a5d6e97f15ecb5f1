package main

import (
	"fmt"
	"syscall"
)

const tmpfsMagic = 0x01021994

// fsType names the filesystem holding dir.
func fsType(dir string) (string, error) {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "", fmt.Errorf("statfs %s: %w", dir, err)
	}
	switch st.Type {
	case tmpfsMagic:
		return "tmpfs", nil
	case 0xEF53:
		return "ext2/3/4", nil
	case 0x58465342:
		return "xfs", nil
	case 0x9123683E:
		return "btrfs", nil
	case 0x794C7630:
		return "overlayfs", nil
	}
	return fmt.Sprintf("0x%x", st.Type), nil
}
