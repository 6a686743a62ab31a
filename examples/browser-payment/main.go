// Browser payment: the paper's §4.2 case study — paying a conference
// registration fee with a credit card whose number and security code are
// cors. The trusted node enforces the §4.2 policy set: a domain whitelist,
// a daily time window, an access-frequency limit, and full auditing.
//
//	go run ./examples/browser-payment
package main

import (
	"context"
	"fmt"
	"log"
	"strings"
	"time"

	"tinman/internal/apps"
	"tinman/internal/core"
	"tinman/internal/netsim"
	"tinman/internal/policy"
)

// browserSource models the browser's form-fill flow: the dropdown widget
// supplies placeholders for the card fields; submitting the form
// concatenates them into the POST body (triggering offload) and sends it.
const browserSource = `
class Browser
  ; pay(cardNumber, securityCode, host) -> 1 on success
  method pay 3 14
    invoke r3, Browser.fillForm, r0, r1
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
  method fillForm 2 12
    conststr r2, "POST /pay HTTP/1.1\nitem=conference-registration&card="
    strcat r3, r2, r0        ; tainted concat: offload trigger
    conststr r4, "&code="
    strcat r5, r3, r4
    strcat r6, r5, r1
    return r6
  end
end`

func main() {
	world, err := core.NewWorld(core.Config{Seed: 3, Profile: netsim.WiFi, TinManEnabled: true})
	if err != nil {
		log.Fatal(err)
	}

	const cardNumber = "4111111111111111"
	const securityCode = "137"
	shop, err := apps.NewOriginServer(world, "conf.example", "203.0.113.30", nil)
	if err != nil {
		log.Fatal(err)
	}
	// The conference site accepts any well-formed payment carrying the real
	// card number.
	shop.Handler = func(req string) string {
		if strings.Contains(req, "card="+cardNumber) && strings.Contains(req, "code="+securityCode) {
			return "HTTP/1.1 200 OK\nreceipt=EUROSYS15-RECEIPT"
		}
		return "HTTP/1.1 402 Payment Required"
	}

	// §4.2's policy set for the card.
	node := world.Node
	if _, err := node.RegisterCor("visa-number", cardNumber, "Visa ending 1111", "conf.example"); err != nil {
		log.Fatal(err)
	}
	if _, err := node.RegisterCor("visa-code", securityCode, "Visa security code", "conf.example"); err != nil {
		log.Fatal(err)
	}
	doc := node.Svc.Policy.Export()
	doc.Version = 0 // take the next version
	doc.Windows = map[string]policy.Window{}
	doc.Rates = map[string]policy.RateSpec{}
	for _, id := range []string{"visa-number", "visa-code"} {
		doc.Windows[id] = policy.Window{From: 10, To: 22}            // 10:00-22:00
		doc.Rates[id] = policy.RateSpec{Max: 4, Per: 24 * time.Hour} // 4/day
	}
	if _, err := node.Svc.InstallPolicy(context.Background(), doc); err != nil {
		log.Fatal(err)
	}
	if err := world.Device.RefreshCatalog(); err != nil {
		log.Fatal(err)
	}

	app, err := world.Device.InstallApp("browser", browserSource, 96)
	if err != nil {
		log.Fatal(err)
	}
	node.BindApp("visa-number", app.Hash())
	node.BindApp("visa-code", app.Hash())

	// Virtual time starts at epoch (00:00) — outside the window. Advance to
	// noon so the first payment is inside it.
	world.Net.Advance(12 * time.Hour)

	pay := func() error {
		num, err := world.Device.CorArg(app, "visa-number")
		if err != nil {
			return err
		}
		code, err := world.Device.CorArg(app, "visa-code")
		if err != nil {
			return err
		}
		res, err := app.Run("Browser", "pay", num, code, world.Device.StringArg(app, "conf.example"))
		if err != nil {
			return err
		}
		if res.Int != 1 {
			return fmt.Errorf("payment rejected by the shop")
		}
		return nil
	}

	fmt.Println("paying the registration fee at noon...")
	if err := pay(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("payment accepted; receipt issued")
	fmt.Printf("shop saw the real card: %v; a placeholder: %v\n",
		shop.SawSubstring(cardNumber), shop.SawSubstring("TINMAN-PLACEHOLDER"))

	// Exhaust the daily budget (3 more payments allowed)...
	for i := 0; i < 3; i++ {
		if err := pay(); err != nil {
			log.Fatalf("payment %d: %v", i+2, err)
		}
	}
	// ...the fifth is rate-limited.
	err = pay()
	fmt.Printf("\nfifth payment today: %v\n", err)
	if err == nil || !strings.Contains(err.Error(), "rate limit") {
		log.Fatal("rate limit did not engage")
	}

	// And at 3 a.m. the window denies even a fresh budget.
	world.Net.Advance(15 * time.Hour) // noon + 15h = 3:00 next day
	err = pay()
	fmt.Printf("3 a.m. payment: %v\n", err)
	if err == nil || !strings.Contains(err.Error(), "time window") {
		log.Fatal("time window did not engage")
	}

	// Everything is in the audit trail (§4.2 fourth policy).
	fmt.Printf("\naudit entries: %d (last 3)\n", world.Node.Svc.Audit.Len())
	entries := world.Node.Svc.Audit.Entries()
	for _, e := range entries[len(entries)-3:] {
		fmt.Println("  " + e.String())
	}
}
