// Quickstart: the smallest complete TinMan world — one device, one trusted
// node, one bank, one password — showing a protected login end to end.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"strings"

	"tinman/internal/apps"
	"tinman/internal/core"
	"tinman/internal/netsim"
)

// appSource is a minimal TinMan-protected app: hash the (placeholder)
// password — the offload trigger — build the login request, send it.
const appSource = `
class QuickApp
  method login 3 12          ; account, password cor, host
    invoke r3, QuickApp.buildRequest, r0, r1
    native r4, https_request, r2, r3
    conststr r5, "200 OK"
    indexof r6, r4, r5
    const r7, 0
    iflt r6, r7, fail
    const r8, 1
    return r8
  fail:
    const r8, 0
    return r8
  end
  method buildRequest 2 10
    hash r2, r1              ; touching the tainted placeholder -> offload
    conststr r3, "POST /login HTTP/1.1\nhost=bank.example\nuser="
    strcat r4, r3, r0
    conststr r5, "&hash="
    strcat r6, r4, r5
    strcat r7, r6, r2        ; derived cor: the full request
    return r7
  end
end`

func main() {
	// 1. Build the world: a device and a trusted node on a Wi-Fi network.
	world, err := core.NewWorld(core.Config{Seed: 1, Profile: netsim.WiFi, TinManEnabled: true})
	if err != nil {
		log.Fatal(err)
	}

	// 2. An origin server (the bank) that knows alice's real password.
	const password = "correct horse battery"
	bank, err := apps.NewOriginServer(world, "bank.example", "198.51.100.10",
		map[string]string{"alice": password})
	if err != nil {
		log.Fatal(err)
	}

	// 3. One-time safe-environment setup: the password lives ONLY on the
	//    trusted node, whitelisted for the bank's domain.
	if _, err := world.Node.RegisterCor("bank-pw", password, "My bank password", "bank.example"); err != nil {
		log.Fatal(err)
	}
	if err := world.Device.RefreshCatalog(); err != nil {
		log.Fatal(err)
	}

	// 4. Install the app on the device (and, transparently, the node).
	app, err := world.Device.InstallApp("quickapp", appSource, 64)
	if err != nil {
		log.Fatal(err)
	}
	world.Node.BindApp("bank-pw", app.Hash())

	// 5. The user picks the password from the selection widget — the app
	//    receives a tainted placeholder, never the secret.
	pw, err := world.Device.CorArg(app, "bank-pw")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("placeholder on device: %q\n", pw.Ref.Str)

	// 6. Run the login. The hash instruction triggers offloading; the
	//    request is built on the node; the send happens via SSL session
	//    injection + TCP payload replacement.
	res, err := app.Run("QuickApp", "login",
		world.Device.StringArg(app, "alice"), pw, world.Device.StringArg(app, "bank.example"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("login result: %d (1 = bank accepted)\n", res.Int)
	fmt.Printf("virtual login time: %v\n", app.Report.Total)
	fmt.Printf("offloaded round trips: %d, DSM syncs: %d, init sync %.1f KB\n",
		app.Report.Migrations, app.Report.Syncs, float64(app.Report.InitBytes)/1024)

	// 7. Verify the paper's security claim on the live heap: no plaintext
	//    residue anywhere on the device (§5.1).
	leaks := 0
	for _, o := range app.VM().Heap.Objects() {
		if o.IsStr && strings.Contains(o.Str, password) {
			leaks++
		}
	}
	fmt.Printf("device heap objects containing the secret: %d\n", leaks)
	fmt.Printf("bank saw the real credential: %v\n", bank.SawSubstring(apps.PasswordHash(password)))
	fmt.Printf("bank saw a placeholder: %v\n", bank.SawSubstring("TINMAN-PLACEHOLDER"))

	// 8. Everything was audited on the trusted node.
	fmt.Println("\ntrusted node audit log:")
	for _, e := range world.Node.Svc.Audit.Entries() {
		fmt.Println("  " + e.String())
	}
}
